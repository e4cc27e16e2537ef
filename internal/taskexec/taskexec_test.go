package taskexec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/simnet"
)

func testRegistry() *Registry {
	reg := NewRegistry()
	reg.Register("echo", func(args []string) (string, error) {
		return strings.Join(args, " "), nil
	})
	reg.Register("sum", func(args []string) (string, error) {
		total := 0
		for _, a := range args {
			n := 0
			if _, err := fmt.Sscanf(a, "%d", &n); err != nil {
				return "", fmt.Errorf("bad arg %q", a)
			}
			total += n
		}
		return fmt.Sprintf("%d", total), nil
	})
	reg.Register("fail", func([]string) (string, error) {
		return "", errors.New("boom")
	})
	return reg
}

func TestRegistryRun(t *testing.T) {
	reg := testRegistry()
	out, err := reg.Run("echo", []string{"a", "b"})
	if err != nil || out != "a b" {
		t.Fatalf("Run echo = %q, %v", out, err)
	}
	if _, err := reg.Run("nope", nil); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("Run nope = %v", err)
	}
	if _, err := reg.Run("fail", nil); !errors.Is(err, ErrExecFailed) {
		t.Fatalf("Run fail = %v", err)
	}
}

func TestPackUnpackArgs(t *testing.T) {
	cases := [][]string{nil, {"a"}, {"a", "b c", "d,e"}, {"", ""}}
	for _, args := range cases {
		got := UnpackArgs(PackArgs(args))
		if len(got) != len(args) {
			// nil and empty round trip to nil.
			if len(args) == 0 && got == nil {
				continue
			}
			t.Fatalf("round trip %v = %v", args, got)
		}
		for i := range args {
			if got[i] != args[i] {
				t.Fatalf("round trip %v = %v", args, got)
			}
		}
	}
}

func remotePair(t *testing.T) (*Service, *Service) {
	t.Helper()
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	epA, err := endpoint.NewService(net, keys.PeerID("urn:jxta:task-a"))
	if err != nil {
		t.Fatal(err)
	}
	epB, err := endpoint.NewService(net, keys.PeerID("urn:jxta:task-b"))
	if err != nil {
		t.Fatal(err)
	}
	return New(epA, testRegistry()), New(epB, testRegistry())
}

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestRemoteExec(t *testing.T) {
	a, b := remotePair(t)
	out, err := a.Exec(ctx(t), b.ep.PeerID(), "sum", []string{"1", "2", "39"})
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if out != "42" {
		t.Fatalf("out = %q", out)
	}
}

func TestRemoteExecErrors(t *testing.T) {
	a, b := remotePair(t)
	if _, err := a.Exec(ctx(t), b.ep.PeerID(), "missing", nil); err == nil {
		t.Fatal("Exec of unknown task succeeded")
	}
	if _, err := a.Exec(ctx(t), b.ep.PeerID(), "fail", nil); err == nil {
		t.Fatal("Exec of failing task succeeded")
	}
}

func TestDefaultAllowsEveryone(t *testing.T) {
	// The original middleware ships without authorization — anyone who
	// can reach the peer can execute tasks. This test documents that
	// vulnerability (the secure variant in internal/core closes it).
	a, b := remotePair(t)
	if _, err := a.Exec(ctx(t), b.ep.PeerID(), "echo", []string{"pwned"}); err != nil {
		t.Fatalf("unauthenticated exec should succeed on plain service: %v", err)
	}
}
