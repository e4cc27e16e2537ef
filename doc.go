// Package jxtaoverlay is a from-scratch Go reproduction of
// "A Security-aware Approach to JXTA-Overlay Primitives"
// (Arnedo-Moreno, Matsuo, Barolli, Xhafa — ICPP Workshops 2009,
// DOI 10.1109/ICPPW.2009.13).
//
// The repository contains the complete JXTA-Overlay middleware substrate
// (XML advertisements, pipes, endpoint messaging, discovery, brokers,
// the central user database, group/file/statistics/executable
// primitives) plus the paper's contribution: the security extension in
// internal/core (secureConnection, secureLogin, secureMsgPeer,
// secureMsgPeerGroup, XMLdsig-signed advertisements, and the secured
// executable primitives the paper lists as further work).
//
// See PERF.md for architecture and measured numbers, SECURITY.md for
// the trust models, and cmd/perf/README.md for the end-to-end benchmark.
// cmd/benchjoin and cmd/benchmsg regenerate the paper's §5 tables.
//
// # System setup
//
// The paper's §4.1 is written once, in internal/core/setup.go, and ends
// at a running broker and a joined client. Every command, example,
// harness and test brings a deployment up through these calls:
//
//	dep, _ := core.NewDeployment("admin", 0) // PK/SK_Adm, Cred_Adm^Adm
//	site, _ := dep.StartBroker(              // SK_Br, Cred_Br^Adm, extension attached
//		broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(users)},
//		core.BrokerConfig{RequireSignedAdvs: true})
//	defer site.Close() // the lease sweeper, then the broker
//	alice, _ := dep.NewClient(net, "alice") // SK_Cl, provisioned with the anchor
//	defer alice.Close()
//	err := alice.Join(ctx, site.Broker.PeerID(), "alice-pw") // secureConnection + secureLogin
//
// The broker's PeerID is the CBID its credential certifies; a key,
// credential or trust store the caller passes in core.BrokerConfig is used
// as given (and checked), what it leaves nil is generated. Relay,
// admission, audit and tracing are optional subsystems with their own
// lifetimes: separate calls on site.Broker (core.EnableBrokerRelay, …).
//
// # Fast path
//
// The sign/verify pipeline — the cost center the paper measures — is
// built for repetition (see PERF.md for architecture and numbers):
//
//   - internal/xmldoc memoizes canonical bytes per element, invalidated
//     by every mutator through parent backlinks. After the first
//     Canonical() call a tree must only be changed via the mutator
//     methods (Add, AddText, SetText, SetAttr, RemoveChildren), and the
//     returned bytes are shared and read-only.
//   - Element.CanonicalSkip serializes a document minus selected direct
//     children, so XMLdsig verification never deep-copies a document to
//     detach its Signature.
//   - internal/xdsig.VerifyCache and the cred.TrustStore signature cache
//     memoize verification verdicts in digest-keyed, TTL-bounded LRUs
//     (internal/lru); credential expiry is enforced on every lookup and
//     failures are never cached. internal/core and internal/broker
//     thread these caches through messaging, advertisement acceptance
//     and the (parallel) group fan-out.
//   - Group fan-out seals ONE signed round per send and each member gets
//     its own Merkle-bound slice of it (core.SealGroupDetached/OpenSlice),
//     its key wrapped to the X25519 agreement key the member's client
//     credential certifies, so opening it takes no RSA operation, under a
//     round key the sender holds for ten minutes, so that once both ends
//     have memoized that agreement it takes no X25519 either
//     (internal/keys/wrap.go; SECURITY.md "Certified agreement key");
//     with the broker relay (internal/relay, core.EnableBrokerRelay)
//     the sender uploads the whole round once and the broker cuts the
//     slices (core.SliceRound),
//     delivering immediately to online members and queueing — bounded,
//     TTL-expiring, drained on login — for offline ones. The relay
//     holds no keys and no plaintext; SECURITY.md states what a
//     compromised relay can and cannot do.
//   - That wrap is the one key transport: a sign-then-encrypt envelope,
//     the login request and a database request are sealed to the
//     recipient's agreement key the same way (keys.SealEnvelope), each
//     under a fresh ephemeral key. No production path performs an
//     RSA-OAEP operation; the broker's agreement key rides its
//     secureConnection answer under the challenge signature.
//
// # One open path
//
// Every secure wire — envelope, round slice, session-channel frame — is
// accepted or refused by one receive pipeline (openWire in internal/core/open.go; SECURITY.md
// lists its steps). Every form but a channel's carries one binary signed
// header (internal/core/header.go: kind, sender, group, time, body digest
// and the optional fields its flags name), signed as a label followed by
// the header bytes themselves: no canonicalization, and XML only for the
// paper's documents — advertisements, credentials, the credentialed
// requests, audit checkpoints. There is one envelope, the paper's
// sign-then-encrypt (core.ModeFull), and a header without a signature opens
// nowhere: every SecureMessage names a sender whose certified key verified
// it, or the peer of a channel its signed offer established.
// core.Open/OpenSlice, a client's two receivers and the
// secure task service are one-line callers of it, and the replay guard
// covers all of them, one key per form. A client's group pipes (in
// internal/control) accept every form a peer sends; the relay's push
// accepts slices only. Likewise one verifier checks
// every credential-signed broker request (secureRenew, heartbeat) and
// one loop seals every fan-out round.
//
// # Session channels
//
// The paper's secureMsgPeer signs and key-wraps every message. By default
// a SecureClient pays that once per peer: the first envelope's signed
// header carries an X25519 share, the peer answers with an unsigned
// accept that its certified agreement key authenticates, and every later
// message to it is one AEAD frame under the derived key — no RSA
// operation at either end (internal/core/channel.go; SECURITY.md
// "Session channels" has the transcript, what is given up — per-message
// non-repudiation — and what is gained). A peer that has lost the channel
// refuses the frame and gets the message again as an envelope.
// core.WithMode(core.ModeFull) is the paper's stateless primitive on
// every message; internal/bench, and so cmd/benchmsg, sends with it.
//
// # One buffer per message
//
// A message body is copied once between the sender's text and the
// recipient's application: into the endpoint frame (endpoint.BuildFrame),
// whose routing is a fixed prefix written into the same buffer, where the
// secure send encrypts it in place — the envelope or channel frame is
// sealed into the frame's room for it. (core.Seal, the node-less form,
// seals into a buffer of its own, which a Send then copies into a frame.)
// The transport (endpoint.Transport; simnet.Network) delivers
// that frame as it is. Nothing is copied on the way in: a delivered frame
// belongs to its handler alone (package endpoint states the rule), parsed
// fields and elements are views of it, and the open pipeline decrypts
// where the bytes lie. Code that keeps parsed bytes longer than its handler runs
// (advertisement caches, session credentials) parses from a copy.
package jxtaoverlay
