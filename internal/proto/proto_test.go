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
