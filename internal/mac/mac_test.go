package mac

import (
	"strings"
	"testing"
)

func testModule(version uint64) *Module {
	return &Module{
		Name:    "car-base",
		Version: version,
		Rules: []AllowRule{
			{SourceType: "infotainment_t", TargetType: "media_t", Class: "file",
				Perms: []Permission{"read", "open"}},
			{SourceType: "infotainment_t", TargetType: "status_t", Class: "can_message",
				Perms: []Permission{"read"}},
			{SourceType: "telematics_t", TargetType: "tracking_t", Class: "can_message",
				Perms: []Permission{"read", "write"}},
		},
	}
}

func ctx(typ string) Context { return Context{User: "system_u", Role: "object_r", Type: typ} }

func TestContextString(t *testing.T) {
	if s := ctx("infotainment_t").String(); s != "system_u:object_r:infotainment_t" {
		t.Errorf("String = %q", s)
	}
}

func TestDefaultDenyWithNoModules(t *testing.T) {
	s := NewServer()
	d := s.Check(ctx("a_t"), ctx("b_t"), "file", "read")
	if d.Allowed || d.Granted {
		t.Error("empty policy allowed an access")
	}
}

func TestTypeEnforcement(t *testing.T) {
	s := NewServer()
	if err := s.Load(testModule(1)); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		src, tgt string
		class    Class
		perm     Permission
		want     bool
	}{
		{"infotainment_t", "media_t", "file", "read", true},
		{"infotainment_t", "media_t", "file", "open", true},
		{"infotainment_t", "media_t", "file", "write", false},           // perm not granted
		{"infotainment_t", "status_t", "file", "read", false},           // wrong class
		{"infotainment_t", "tracking_t", "can_message", "write", false}, // wrong source
		{"telematics_t", "tracking_t", "can_message", "write", true},
		{"ghost_t", "media_t", "file", "read", false},
	}
	for _, tt := range tests {
		d := s.Check(ctx(tt.src), ctx(tt.tgt), tt.class, tt.perm)
		if d.Allowed != tt.want {
			t.Errorf("Check(%s->%s:%s{%s}) = %v, want %v",
				tt.src, tt.tgt, tt.class, tt.perm, d.Allowed, tt.want)
		}
	}
}

func TestPermissiveModeAllowsButRecordsDenial(t *testing.T) {
	s := NewServer(WithMode(Permissive))
	d := s.Check(ctx("a_t"), ctx("b_t"), "file", "read")
	if !d.Allowed {
		t.Error("permissive mode blocked")
	}
	if d.Granted {
		t.Error("permissive mode claimed policy granted")
	}
	audit := s.Audit()
	if len(audit) != 1 || !strings.Contains(audit[0].String(), "permissive") {
		t.Errorf("audit = %v", audit)
	}
	s.SetMode(Enforcing)
	if s.Mode() != Enforcing {
		t.Error("SetMode failed")
	}
	if d := s.Check(ctx("a_t"), ctx("b_t"), "file", "read"); d.Allowed {
		t.Error("enforcing mode allowed")
	}
}

func TestModuleLoadUnloadVersioning(t *testing.T) {
	s := NewServer()
	if err := s.Load(testModule(2)); err != nil {
		t.Fatal(err)
	}
	// Same or older version rejected.
	if err := s.Load(testModule(2)); err == nil {
		t.Error("same-version reload accepted")
	}
	if err := s.Load(testModule(1)); err == nil {
		t.Error("downgrade accepted")
	}
	// Newer version replaces.
	m3 := testModule(3)
	m3.Rules = m3.Rules[:1] // narrower policy
	if err := s.Load(m3); err != nil {
		t.Fatal(err)
	}
	if d := s.Check(ctx("telematics_t"), ctx("tracking_t"), "can_message", "write"); d.Allowed {
		t.Error("rule from replaced module still active")
	}
	if !s.Unload("car-base") {
		t.Fatal("Unload failed")
	}
	if s.Unload("car-base") {
		t.Error("double Unload succeeded")
	}
	if d := s.Check(ctx("infotainment_t"), ctx("media_t"), "file", "read"); d.Allowed {
		t.Error("rules survive unload")
	}
	if len(s.modules) != 0 {
		t.Errorf("%d modules loaded after unload", len(s.modules))
	}
}

func TestModuleValidation(t *testing.T) {
	if err := (&Module{Name: ""}).Validate(); err == nil {
		t.Error("unnamed module accepted")
	}
	bad := &Module{Name: "m", Rules: []AllowRule{{SourceType: "a"}}}
	if err := bad.Validate(); err == nil {
		t.Error("incomplete rule accepted")
	}
	s := NewServer()
	if err := s.Load(bad); err == nil {
		t.Error("server loaded invalid module")
	}
}

func TestAVCCacheHitsAndInvalidation(t *testing.T) {
	s := NewServer()
	if err := s.Load(testModule(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Check(ctx("infotainment_t"), ctx("media_t"), "file", "read")
	}
	st := s.Stats()
	if st.AVCMisses != 1 || st.AVCHits != 9 {
		t.Errorf("AVC hits/misses = %d/%d, want 9/1", st.AVCHits, st.AVCMisses)
	}
	// Loading a module invalidates the cache.
	if err := s.Load(testModule(5)); err != nil {
		t.Fatal(err)
	}
	s.Check(ctx("infotainment_t"), ctx("media_t"), "file", "read")
	st = s.Stats()
	if st.AVCMisses != 2 {
		t.Errorf("AVC not invalidated on load: misses = %d", st.AVCMisses)
	}
}

func TestAVCDisabled(t *testing.T) {
	s := NewServer(WithAVC(false))
	if err := s.Load(testModule(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Check(ctx("infotainment_t"), ctx("media_t"), "file", "read")
	}
	st := s.Stats()
	if st.AVCHits != 0 || st.AVCMisses != 0 {
		t.Errorf("disabled AVC recorded activity: %+v", st)
	}
}

func TestAVCCapacityBound(t *testing.T) {
	s := NewServer(WithAVCCapacity(4))
	if err := s.Load(testModule(1)); err != nil {
		t.Fatal(err)
	}
	// Touch many distinct keys; the server must not grow unboundedly and
	// must stay correct afterwards.
	for i := 0; i < 100; i++ {
		s.Check(ctx("infotainment_t"), ctx("media_t"), "file", Permission("read"))
		s.Check(ctx("x_t"), ctx(strings.Repeat("y", i%7)+"_t"), "file", "read")
	}
	if d := s.Check(ctx("infotainment_t"), ctx("media_t"), "file", "read"); !d.Allowed {
		t.Error("correctness lost under cache pressure")
	}
}

func TestKernelCompromiseBypass(t *testing.T) {
	// §V-B.2: software enforcement falls with the kernel; this is the fault
	// injection the HPE comparison relies on.
	s := NewServer()
	if err := s.Load(testModule(1)); err != nil {
		t.Fatal(err)
	}
	denied := s.Check(ctx("evil_t"), ctx("tracking_t"), "can_message", "write")
	if denied.Allowed {
		t.Fatal("precondition: access should be denied before compromise")
	}
	s.CompromiseKernel()
	d := s.Check(ctx("evil_t"), ctx("tracking_t"), "can_message", "write")
	if !d.Allowed || !d.Bypassed || d.Granted {
		t.Errorf("compromised check = %+v, want allowed+bypassed", d)
	}
	if st := s.Stats(); st.Bypassed != 1 {
		t.Errorf("Bypassed = %d, want 1", st.Bypassed)
	}
	s.Reset()
	d = s.Check(ctx("evil_t"), ctx("tracking_t"), "can_message", "write")
	if d.Allowed {
		t.Error("enforcement not restored by Reset")
	}
}

func TestAuditRing(t *testing.T) {
	s := NewServer(WithAuditCapacity(3))
	for i := 0; i < 6; i++ {
		s.Check(ctx("a_t"), ctx("b_t"), "file", "read") // all denials
	}
	audit := s.Audit()
	if len(audit) != 3 {
		t.Fatalf("audit length %d, want 3 (ring)", len(audit))
	}
	if audit[0].Seq != 4 || audit[2].Seq != 6 {
		t.Errorf("ring kept wrong records: %v", audit)
	}
	rec := audit[0]
	line := rec.String()
	if !strings.Contains(line, "denied") || !strings.Contains(line, "a_t") {
		t.Errorf("audit line %q", line)
	}
}

func TestAllowRuleString(t *testing.T) {
	r := AllowRule{SourceType: "a_t", TargetType: "b_t", Class: "file",
		Perms: []Permission{"write", "read"}}
	want := "allow a_t b_t : file { read write }"
	if got := r.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewServer()
	if err := s.Load(testModule(1)); err != nil {
		t.Fatal(err)
	}
	s.Check(ctx("infotainment_t"), ctx("media_t"), "file", "read") // grant
	s.Check(ctx("a_t"), ctx("b_t"), "file", "read")                // deny
	st := s.Stats()
	if st.Checks != 2 || st.Granted != 1 || st.Denied != 1 || st.Loads != 1 {
		t.Errorf("stats = %+v", st)
	}
}
