package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/engine"
)

// schemaFingerprint hashes the names, types and order of the fields of the
// structs the positional vehicle encoding walks.
func schemaFingerprint() string {
	var b strings.Builder
	for _, v := range []any{engine.VehicleReport{}, attack.RegimeSummary{}, attack.Summary{}, engine.Health{}} {
		t := reflect.TypeOf(v)
		fmt.Fprintf(&b, "%s{", t)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			fmt.Fprintf(&b, "%s %s/%s;", f.Name, f.Type, f.Type.Kind())
		}
		b.WriteString("}\n")
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestSchemaFingerprint fails when a field of an encoded struct is added,
// removed, renamed, retyped or reordered without a protocol version bump:
// the positional layout would otherwise mis-decode across versions instead
// of being rejected with ErrVersion.
func TestSchemaFingerprint(t *testing.T) {
	want, ok := schemas[Version]
	if !ok {
		t.Fatalf("no schema fingerprint pinned for wire.Version %d: pin %s", Version, schemaFingerprint())
	}
	if got := schemaFingerprint(); got != want {
		t.Errorf("encoded struct layout changed under wire.Version %d (fingerprint %s, pinned %s): bump Version and pin the new fingerprint under it",
			Version, got, want)
	}
}
