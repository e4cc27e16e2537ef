package proto

import "testing"

func TestOKRoundTrip(t *testing.T) {
	ok, errTok := IsOK(OK())
	if !ok || errTok != "" {
		t.Fatalf("IsOK(OK()) = %v, %q", ok, errTok)
	}
}

func TestFailRoundTrip(t *testing.T) {
	ok, errTok := IsOK(Fail(ErrAuthFailed))
	if ok || errTok != ErrAuthFailed {
		t.Fatalf("IsOK(Fail) = %v, %q", ok, errTok)
	}
}

func TestIsOKNil(t *testing.T) {
	ok, errTok := IsOK(nil)
	if ok || errTok == "" {
		t.Fatalf("IsOK(nil) = %v, %q", ok, errTok)
	}
}

func TestIsOKMissingError(t *testing.T) {
	m := OK()
	m.Elements[0].Data = []byte("0")
	ok, errTok := IsOK(m)
	if ok || errTok != "unknown" {
		t.Fatalf("IsOK = %v, %q", ok, errTok)
	}
}

func TestResponsesCarryExtraElements(t *testing.T) {
	m := OK().AddString(ElemGroups, "a,b")
	if ok, _ := IsOK(m); !ok {
		t.Fatal("extra elements broke IsOK")
	}
	if v, _ := m.GetString(ElemGroups); v != "a,b" {
		t.Fatalf("groups = %q", v)
	}
}

// TestRosterLines: a roster is its peers' "ID|username|status" lines
// joined by newlines, as one buffer.
func TestRosterLines(t *testing.T) {
	var roster []byte
	roster = AppendRosterLine(roster, "urn:jxta:cbid-a", "alice", "online")
	roster = AppendRosterLine(roster, "urn:jxta:cbid-b", "bob", "offline")
	if want := "urn:jxta:cbid-a|alice|online\nurn:jxta:cbid-b|bob|offline"; string(roster) != want {
		t.Fatalf("roster %q, want %q", roster, want)
	}
	for name, want := range map[string]bool{"alice": true, "Ana María": true, "": false, "a|b": false, "a\nb": false, "a\u0085": false} {
		if ValidUsername(name) != want {
			t.Errorf("ValidUsername(%q) = %v, want %v", name, !want, want)
		}
	}
}
