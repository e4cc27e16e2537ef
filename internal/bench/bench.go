// Package bench is the measurement harness behind the paper's
// evaluation (§5). It assembles a complete deployment on the simulated
// fabric, measures primitive costs, and reprices wire time under
// arbitrary link profiles.
//
// Methodology: operations run on a zero-latency network so the measured
// wall time is pure compute (crypto, XML, framing — the part the paper
// ran on a 1.20 GHz Pentium M). The frames and bytes each operation
// exchanged are counted from fabric statistics, and wire time is added
// analytically per link profile (frames × latency + bytes ÷ bandwidth).
// This keeps the reported shapes deterministic while preserving the
// compute/transport trade-off the paper measures.
package bench

import (
	"fmt"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
)

// Env is a ready-to-measure deployment: administrator, one broker with
// the security extension attached (plain login still allowed, so both
// paths can be compared), and a local user database.
type Env struct {
	Net    *simnet.Network
	Dep    *core.Deployment
	Broker *broker.Broker
	Sec    *core.BrokerSecurity
	DB     *userdb.Store

	keyBits int
	users   int
}

// EnvOption tunes an Env.
type EnvOption func(*envConfig)

type envConfig struct {
	keyBits int
}

// WithKeyBits selects the RSA modulus size for every entity (A1).
func WithKeyBits(bits int) EnvOption { return func(c *envConfig) { c.keyBits = bits } }

// dbIterations is the PBKDF2 cost of the bench deployment's user
// database.
const dbIterations = 64

// NewEnv builds a deployment on a zero-latency fabric.
func NewEnv(opts ...EnvOption) (*Env, error) {
	cfg := envConfig{keyBits: keys.DefaultRSABits}
	for _, o := range opts {
		o(&cfg)
	}
	dep, err := core.NewDeployment("bench-admin", cfg.keyBits)
	if err != nil {
		return nil, err
	}
	db := userdb.NewStoreIter(dbIterations)
	net := simnet.NewNetwork(simnet.ProfileLocal)
	site, err := dep.StartBroker(
		broker.Config{Name: "bench-broker", Net: net, DB: broker.LocalDB(db)}, core.BrokerConfig{})
	if err != nil {
		net.Close()
		return nil, err
	}
	return &Env{Net: net, Dep: dep, Broker: site.Broker, Sec: site.Security, DB: db, keyBits: cfg.keyBits}, nil
}

// Close tears the deployment down.
func (e *Env) Close() {
	e.Broker.Close()
	e.Net.Close()
}

// AddUser registers a fresh benchmark user and returns its alias.
func (e *Env) AddUser(groups ...string) (alias, password string, err error) {
	e.users++
	alias = fmt.Sprintf("user%04d", e.users)
	password = "pw-" + alias
	if len(groups) == 0 {
		groups = []string{"bench"}
	}
	if err := e.DB.Register(alias, password, groups...); err != nil {
		return "", "", err
	}
	return alias, password, nil
}

// PlainClient creates a logged-out plain client for an alias.
func (e *Env) PlainClient(alias string) (*client.Client, error) {
	return client.New(e.Net, membership.NewNone(), alias)
}

// SecureClient creates a logged-out secure client for an alias. Key
// generation happens here — at "boot time" per §4.1 — so join
// measurements exclude it, as the paper's do. It sends in ModeFull, the
// stateless primitive the paper measures: no session channel.
func (e *Env) SecureClient(alias string) (*core.SecureClient, error) {
	return e.Dep.NewClient(e.Net, alias, core.WithMode(core.ModeFull))
}

// OpCost is the measured cost of one operation: compute wall time plus
// the traffic it generated.
type OpCost struct {
	Wall   time.Duration
	Frames uint64
	Bytes  uint64
}

// Total reprices the operation under a link profile: compute time plus
// per-frame latency plus serialization at the link rate.
func (c OpCost) Total(p simnet.LinkProfile) time.Duration {
	d := c.Wall + time.Duration(c.Frames)*p.Latency
	if p.Bandwidth > 0 {
		d += time.Duration(float64(c.Bytes) / float64(p.Bandwidth) * float64(time.Second))
	}
	return d
}

// Measure runs op on the env's zero-latency fabric and returns its cost.
func (e *Env) Measure(op func() error) (OpCost, error) {
	before := e.Net.Stats()
	start := time.Now()
	if err := op(); err != nil {
		return OpCost{}, err
	}
	wall := time.Since(start)
	after := e.Net.Stats()
	return OpCost{
		Wall:   wall,
		Frames: after.Sent - before.Sent,
		Bytes:  after.Bytes - before.Bytes,
	}, nil
}

// Overhead returns (secure-plain)/plain in percent.
func Overhead(plain, secure time.Duration) float64 {
	if plain <= 0 {
		return 0
	}
	return (float64(secure) - float64(plain)) / float64(plain) * 100
}

// avgCost averages per-field over n runs of measure.
func avgCost(n int, run func() (OpCost, error)) (OpCost, error) {
	if n < 1 {
		n = 1
	}
	var sumWall time.Duration
	var sumFrames, sumBytes uint64
	for i := 0; i < n; i++ {
		c, err := run()
		if err != nil {
			return OpCost{}, err
		}
		sumWall += c.Wall
		sumFrames += c.Frames
		sumBytes += c.Bytes
	}
	return OpCost{
		Wall:   sumWall / time.Duration(n),
		Frames: sumFrames / uint64(n),
		Bytes:  sumBytes / uint64(n),
	}, nil
}
