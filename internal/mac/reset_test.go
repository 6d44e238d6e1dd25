package mac

import (
	"fmt"
	"testing"
)

func resetModule(version uint64) *Module {
	return &Module{Name: "m", Version: version, Rules: []AllowRule{
		{SourceType: "app_t", TargetType: "msg_t", Class: "can", Perms: []Permission{"read", "write"}},
		{SourceType: "app_t", TargetType: "cfg_t", Class: "file", Perms: []Permission{"read"}},
		{SourceType: "diag_t", TargetType: "msg_t", Class: "can", Perms: []Permission{"read"}},
	}}
}

// probe exercises grants, denials and unknown types.
func probe(s *Server) []Decision {
	return []Decision{
		s.Check(Context{"u", "r", "app_t"}, Context{"u", "r", "msg_t"}, "can", "write"),
		s.Check(Context{"u", "r", "app_t"}, Context{"u", "r", "msg_t"}, "can", "read"),
		s.Check(Context{"u", "r", "diag_t"}, Context{"u", "r", "msg_t"}, "can", "write"),
		s.Check(Context{"u", "r", "ghost_t"}, Context{"u", "r", "msg_t"}, "can", "read"),
		s.Check(Context{"u", "r", "app_t"}, Context{"u", "r", "cfg_t"}, "file", "read"),
		s.Check(Context{"u", "r", "app_t"}, Context{"u", "r", "cfg_t"}, "can", "read"),
	}
}

// resetModules returns resetModule's rules either as one module or split
// across two, so reset equivalence covers an index built from several
// modules as well as from one.
func resetModules(single bool) []*Module {
	m := resetModule(1)
	if single {
		return []*Module{m}
	}
	return []*Module{
		{Name: "m", Version: 1, Rules: m.Rules[:1]},
		{Name: "n", Version: 1, Rules: m.Rules[1:]},
	}
}

// TestServerResetEquivalence checks a reset server answers exactly like a
// fresh server loaded with the same modules, with audit and AVC state
// restarted. Reset keeps every loaded module, so the policy is loaded both
// as a single module and split across two.
func TestServerResetEquivalence(t *testing.T) {
	for _, single := range []bool{false, true} {
		t.Run(fmt.Sprintf("single=%v", single), func(t *testing.T) {
			load := func(s *Server) {
				for _, m := range resetModules(single) {
					if err := s.Load(m); err != nil {
						t.Fatal(err)
					}
				}
			}
			used := NewServer(WithMode(Enforcing))
			load(used)
			// Dirty phase.
			probe(used)
			used.SetMode(Permissive)
			used.CompromiseKernel()
			probe(used)
			used.Reset()

			if used.compromised {
				t.Fatal("compromise survived reset")
			}
			if used.Mode() != Enforcing {
				t.Fatalf("mode after reset: %v", used.Mode())
			}

			fresh := NewServer(WithMode(Enforcing))
			load(fresh)
			got, want := probe(used), probe(fresh)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("decision %d after reset %+v, fresh %+v", i, got[i], want[i])
				}
			}
			gotAudit, wantAudit := used.Audit(), fresh.Audit()
			if len(gotAudit) != len(wantAudit) {
				t.Fatalf("audit length %d, fresh %d", len(gotAudit), len(wantAudit))
			}
			for i := range wantAudit {
				if gotAudit[i] != wantAudit[i] {
					t.Errorf("audit %d after reset %+v, fresh %+v", i, gotAudit[i], wantAudit[i])
				}
			}
			gs, ws := used.Stats(), fresh.Stats()
			gs.Loads, ws.Loads = 0, 0 // reset keeps module-lifecycle counters
			if gs != ws {
				t.Errorf("stats after reset %+v, fresh %+v", gs, ws)
			}
		})
	}
}

// TestCheckAllocationFree verifies the dense-index rewrite: checks allocate
// nothing with the AVC on or off (the old implementation built a permission
// map per AVC miss).
func TestCheckAllocationFree(t *testing.T) {
	for _, avc := range []bool{true, false} {
		t.Run(fmt.Sprintf("avc=%v", avc), func(t *testing.T) {
			s := NewServer(WithAVC(avc))
			if err := s.Load(resetModule(1)); err != nil {
				t.Fatal(err)
			}
			src := Context{"u", "r", "app_t"}
			tgt := Context{"u", "r", "msg_t"}
			s.Check(src, tgt, "can", "read") // warm the AVC
			allocs := testing.AllocsPerRun(200, func() {
				if !s.Check(src, tgt, "can", "read").Allowed {
					t.Fatal("grant path broken")
				}
			})
			if allocs != 0 {
				t.Errorf("Check allocated %.1f objects per run, want 0", allocs)
			}
		})
	}
}

// TestPermissionOverflow exercises the spill path for policies with more
// than 64 distinct permission names.
func TestPermissionOverflow(t *testing.T) {
	m := &Module{Name: "wide", Version: 1}
	var perms []Permission
	for i := 0; i < 70; i++ {
		perms = append(perms, Permission(fmt.Sprintf("perm%02d", i)))
	}
	m.Rules = append(m.Rules, AllowRule{
		SourceType: "s_t", TargetType: "t_t", Class: "can", Perms: perms,
	})
	s := NewServer()
	if err := s.Load(m); err != nil {
		t.Fatal(err)
	}
	src, tgt := Context{"u", "r", "s_t"}, Context{"u", "r", "t_t"}
	for i, p := range perms {
		if !s.Check(src, tgt, "can", p).Granted {
			t.Errorf("permission %d (%s) not granted", i, p)
		}
	}
	if s.Check(src, tgt, "can", "perm99").Granted {
		t.Error("unknown permission granted")
	}
	if s.Check(Context{"u", "r", "other_t"}, tgt, "can", perms[69]).Granted {
		t.Error("overflow permission granted to wrong source type")
	}
}

// TestIndexRebuildOnUnload checks the dense index tracks module lifecycle.
func TestIndexRebuildOnUnload(t *testing.T) {
	s := NewServer()
	if err := s.Load(resetModule(1)); err != nil {
		t.Fatal(err)
	}
	src, tgt := Context{"u", "r", "app_t"}, Context{"u", "r", "msg_t"}
	if !s.Check(src, tgt, "can", "write").Granted {
		t.Fatal("loaded rule not granted")
	}
	if !s.Unload("m") {
		t.Fatal("unload failed")
	}
	if s.Check(src, tgt, "can", "write").Granted {
		t.Error("unloaded rule still granted (stale index or AVC)")
	}
}
