package canbus

import "testing"

func TestAcceptanceFilterMatching(t *testing.T) {
	tests := []struct {
		name   string
		filter AcceptanceFilter
		frame  Frame
		want   bool
	}{
		{"exact hit", ExactFilter(0x123), MustDataFrame(0x123, nil), true},
		{"exact miss", ExactFilter(0x123), MustDataFrame(0x124, nil), false},
		{"accept all standard", AcceptanceFilter{}, MustDataFrame(0x7FF, nil), true},
		{"accept all rejects extended", AcceptanceFilter{},
			Frame{ID: 0x123, Extended: true}, false},
		{"masked group hit", AcceptanceFilter{Mask: 0x7F0, Code: 0x120},
			MustDataFrame(0x12A, nil), true},
		{"masked group miss", AcceptanceFilter{Mask: 0x7F0, Code: 0x120},
			MustDataFrame(0x130, nil), false},
		{"extended filter hit", AcceptanceFilter{Mask: 0x1FFFFFFF, Code: 0x18FF0000, Extended: true},
			Frame{ID: 0x18FF0000, Extended: true}, true},
		{"extended filter vs standard frame",
			AcceptanceFilter{Mask: 0x7FF, Code: 0x123, Extended: true},
			MustDataFrame(0x123, nil), false},
		{"zero mask matches everything standard", AcceptanceFilter{},
			MustDataFrame(0x001, nil), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.filter.Matches(tt.frame); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEnumStrings(t *testing.T) {
	if Grant.String() != "grant" || Block.String() != "block" || Verdict(0).String() != "invalid" {
		t.Error("Verdict strings wrong")
	}
	if Read.String() != "read" || Write.String() != "write" || Direction(0).String() != "invalid" {
		t.Error("Direction strings wrong")
	}
	kinds := []TraceEventKind{TraceTxStart, TraceDelivered, TraceError,
		TraceWriteBlocked, TraceReadBlocked, TraceBusOff}
	want := []string{"tx-start", "delivered", "error", "write-blocked", "read-blocked", "bus-off"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", i, k, want[i])
		}
	}
	states := []ErrorState{ErrorActive, ErrorPassive, BusOff}
	wantStates := []string{"error-active", "error-passive", "bus-off"}
	for i, s := range states {
		if s.String() != wantStates[i] {
			t.Errorf("state %d = %q", i, s)
		}
	}
}
