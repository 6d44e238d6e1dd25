package policy

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// testKeys returns a deterministic ed25519 key pair for tests.
func testKeys(t *testing.T) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return priv.Public().(ed25519.PublicKey), priv
}

func policySrc(version int) string {
	return fmt.Sprintf(`policy "car" version %d {
  default deny
  allow read 0x100 at ecu
  allow write 0x100 at sensors
}`, version)
}

func TestSignVerifyRoundTrip(t *testing.T) {
	pub, priv := testKeys(t)
	b, err := Sign(policySrc(1), priv)
	if err != nil {
		t.Fatal(err)
	}
	set, err := b.Verify(pub)
	if err != nil {
		t.Fatal(err)
	}
	if set.Name != "car" || set.Version != 1 || len(set.Rules) != 2 {
		t.Errorf("verified set wrong: %s/%d with %d rules", set.Name, set.Version, len(set.Rules))
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	pub, priv := testKeys(t)
	b, err := Sign(policySrc(1), priv)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Bundle)
	}{
		{"source edited", func(b *Bundle) { b.Source += "\n# malicious" }},
		{"version bumped", func(b *Bundle) { b.Version = 99 }},
		{"name changed", func(b *Bundle) { b.Name = "evil" }},
		{"signature flipped", func(b *Bundle) { b.Signature[0] ^= 1 }},
		{"signature truncated", func(b *Bundle) { b.Signature = b.Signature[:10] }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cp := *b
			cp.Signature = append([]byte(nil), b.Signature...)
			tt.mutate(&cp)
			if _, err := cp.Verify(pub); err == nil {
				t.Error("tampered bundle verified")
			}
		})
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	_, priv := testKeys(t)
	b, err := Sign(policySrc(1), priv)
	if err != nil {
		t.Fatal(err)
	}
	otherPub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Verify(otherPub); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong-key Verify = %v, want ErrBadSignature", err)
	}
}

func TestSignRejectsBadSource(t *testing.T) {
	_, priv := testKeys(t)
	if _, err := Sign("not a policy", priv); err == nil {
		t.Error("signed unparseable source")
	}
}

func TestBundleEncodeDecode(t *testing.T) {
	pub, priv := testKeys(t)
	b, err := Sign(policySrc(2), priv)
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Verify(pub); err != nil {
		t.Errorf("decoded bundle failed verification: %v", err)
	}
	if _, err := DecodeBundle([]byte("{garbage")); err == nil {
		t.Error("decoded garbage")
	}
}

func storeOpts() CompileOptions {
	return CompileOptions{Subjects: []string{"ecu", "sensors"}, Modes: []Mode{"Normal"}}
}

func TestStoreApplyAndHotSwap(t *testing.T) {
	pub, priv := testKeys(t)
	store := NewStore(pub, storeOpts())
	if store.CurrentSet() != nil {
		t.Fatal("fresh store should have no policy")
	}
	var notified []uint64
	store.Subscribe(func(c *Compiled) { notified = append(notified, c.Version) })

	b1, _ := Sign(policySrc(1), priv)
	c1, err := store.Apply(b1)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Version != 1 || store.CurrentSet().Version != 1 {
		t.Errorf("installed version %d", c1.Version)
	}

	b2, _ := Sign(policySrc(2), priv)
	if _, err := store.Apply(b2); err != nil {
		t.Fatal(err)
	}
	if store.CurrentSet().Version != 2 {
		t.Error("hot swap did not install v2")
	}
	if len(notified) != 2 || notified[0] != 1 || notified[1] != 2 {
		t.Errorf("listener notifications = %v", notified)
	}
	applied, rejected := store.Stats()
	if applied != 2 || rejected != 0 {
		t.Errorf("stats = %d/%d", applied, rejected)
	}
}

func TestStoreRejectsStaleAndReplay(t *testing.T) {
	pub, priv := testKeys(t)
	store := NewStore(pub, storeOpts())
	b2, _ := Sign(policySrc(2), priv)
	if _, err := store.Apply(b2); err != nil {
		t.Fatal(err)
	}
	// Replay of the same version.
	if _, err := store.Apply(b2); !errors.Is(err, ErrStaleVersion) {
		t.Errorf("replay accepted: %v", err)
	}
	// Downgrade.
	b1, _ := Sign(policySrc(1), priv)
	if _, err := store.Apply(b1); !errors.Is(err, ErrStaleVersion) {
		t.Errorf("downgrade accepted: %v", err)
	}
	if store.CurrentSet().Version != 2 {
		t.Error("rejected bundle changed installed policy")
	}
	_, rejected := store.Stats()
	if rejected != 2 {
		t.Errorf("rejected = %d, want 2", rejected)
	}
}

func TestStoreRejectsNameChange(t *testing.T) {
	pub, priv := testKeys(t)
	store := NewStore(pub, storeOpts())
	b1, _ := Sign(policySrc(1), priv)
	if _, err := store.Apply(b1); err != nil {
		t.Fatal(err)
	}
	other, _ := Sign(`policy "different" version 5 { allow read 1 at ecu }`, priv)
	if _, err := store.Apply(other); !errors.Is(err, ErrNameMismatch) {
		t.Errorf("name change accepted: %v", err)
	}
}

func TestStoreRejectsUnsigned(t *testing.T) {
	pub, _ := testKeys(t)
	store := NewStore(pub, storeOpts())
	_, evil := testKeys(t) // same key; craft a bundle then break signature
	b, _ := Sign(policySrc(1), evil)
	b.Signature[5] ^= 0xFF
	if _, err := store.Apply(b); err == nil {
		t.Error("store accepted broken signature")
	}
	if store.CurrentSet() != nil {
		t.Error("rejected bundle installed")
	}
}

func TestStoreConcurrentApply(t *testing.T) {
	pub, priv := testKeys(t)
	store := NewStore(pub, storeOpts())
	const n = 20
	bundles := make([]*Bundle, n)
	for i := range bundles {
		b, err := Sign(policySrc(i+1), priv)
		if err != nil {
			t.Fatal(err)
		}
		bundles[i] = b
	}
	var wg sync.WaitGroup
	for _, b := range bundles {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = store.Apply(b) // stale rejections are expected
		}()
	}
	wg.Wait()
	cur := store.CurrentSet()
	if cur == nil {
		t.Fatal("no policy installed")
	}
	// Whatever won, the installed version must be consistent and the
	// highest accepted version must not exceed n.
	if cur.Version == 0 || cur.Version > n {
		t.Errorf("installed version %d out of range", cur.Version)
	}
}

// TestStoreListenerDeliveryOrder races many successful applies against a
// subscriber and asserts the monotone-version delivery guarantee: because
// Apply takes the delivery lock while still holding the store lock, the
// apply that installed v(k) always notifies before the apply that installed
// v(k+1) — a subscriber's last-observed version can never regress.
func TestStoreListenerDeliveryOrder(t *testing.T) {
	pub, priv := testKeys(t)
	store := NewStore(pub, storeOpts())
	var (
		mu   sync.Mutex
		seen []uint64
	)
	store.Subscribe(func(c *Compiled) {
		mu.Lock()
		seen = append(seen, c.Version)
		mu.Unlock()
	})
	const n = 50
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		b, err := Sign(policySrc(i), priv)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = store.Apply(b) // stale rejections are expected
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("no listener deliveries")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("listener observed version regression: %v", seen)
		}
	}
	applied, _ := store.Stats()
	if uint64(len(seen)) != applied {
		t.Errorf("deliveries %d != applies %d", len(seen), applied)
	}
}
