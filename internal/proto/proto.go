// Package proto pins the wire vocabulary spoken between the Client and
// Broker Modules: endpoint service names, operation identifiers and
// message element names. Both modules (and the security extension in
// internal/core) import it, keeping the protocol in one place.
package proto

import "jxtaoverlay/internal/endpoint"

// Endpoint service names.
const (
	// BrokerService is the broker's shared input channel: every Client
	// Module primitive that involves the broker sends here.
	BrokerService = "overlay:broker"
	// ClientService receives broker pushes (propagated advertisements).
	ClientService = "overlay:client"
	// FileService serves chunked file downloads between client peers.
	FileService = "overlay:file"
	// TaskService serves the executable primitives (remote task calls).
	TaskService = "overlay:task"
	// SecureTaskService is the security extension's wrapper around
	// TaskService.
	SecureTaskService = "overlay:sectask"
)

// Common element names.
const (
	ElemOp      = "op"
	ElemOK      = "ok"
	ElemErr     = "err"
	ElemUser    = "user"
	ElemPass    = "pass"
	ElemGroup   = "group"
	ElemGroups  = "groups"
	ElemDesc    = "desc"
	ElemAdv     = "adv"
	ElemAdvType = "advtype"
	ElemAdvID   = "advid"
	ElemPeer    = "peer"
	ElemPeers   = "peers"
	ElemKeyword = "keyword"
	ElemBroker  = "broker"
	ElemBody    = "msg:body"

	// Security extension elements.
	ElemChallenge = "sec:chall"
	ElemSid       = "sec:sid"
	ElemSig       = "sec:sig"
	ElemCred      = "sec:cred"
	ElemEnvelope  = "sec:env"
	ElemShare     = "sec:share" // the broker's X25519 agreement key, in its secureConnection answer

	// File transfer elements.
	ElemFileName  = "file:name"
	ElemFileChunk = "file:chunk"
	ElemFileData  = "file:data"
	ElemFileSize  = "file:size"
	ElemFileCount = "file:nchunks"
	ElemFileSum   = "file:digest"

	// Task execution elements.
	ElemTaskName = "task:name"
	ElemTaskArgs = "task:args"
	ElemTaskOut  = "task:out"

	// Relay (store-and-forward round delivery) elements.
	ElemRecipients  = "relay:rcpt"   // ordered recipient peer IDs, comma separated
	ElemRelayDirect = "relay:direct" // slices delivered immediately
	ElemRelayQueued = "relay:queued" // slices queued for offline peers
	// slices not accepted: recipients unknown to this broker (no session
	// record), or whose slice a federation hand-off also failed to ship
	ElemRelaySkipped = "relay:skipped"
	// slices handed off to the federation partner that owns the
	// recipient's presence (counted toward delivery alongside queued)
	ElemRelayHandoff = "relay:handoff"
	// slices refused because the sender or group is over its relay
	// queue quota
	ElemRelayQuota = "relay:quota"
	// fedRelaySlice addressing: recipient peer and expiry (unix nanos)
	// of one handed-off slice
	ElemRelayTo  = "relay:to"
	ElemRelayExp = "relay:exp"
	// fedPeerUp/fedPeerDown: start time (unix nanos) of the client
	// session the update describes. Delivery between brokers is
	// unordered, so receivers use it to discard updates a newer session
	// has already superseded.
	ElemFedSession = "fed:session"
	ElemAll        = "all" // listPeers: include offline peers
	// ElemTrace carries a message-lifecycle trace ID (hex, see
	// internal/trace) end to end: the sending client mints it, the
	// broker threads it through relay items and federation hand-offs,
	// and delivery pushes return it to the receiving client, so every
	// stage span of one message shares one ID. Absent = untraced;
	// brokers never reject a message over it.
	ElemTrace = "trace:id"

	// Presence-lease elements (session liveness). secureLogin responses
	// carry the granted lease identifier and its TTL in milliseconds;
	// the signed heartbeat body renews it. A broker that grants no
	// lease omits both (presence then never expires, the pre-liveness
	// behaviour).
	ElemLease    = "lease:id"
	ElemLeaseTTL = "lease:ttl"

	// ElemIdem carries a client-minted idempotency key on a mutating
	// operation. The broker remembers (peer, key) → response for a
	// dedup window, so a retry after an ambiguous timeout returns the
	// original response instead of executing the mutation twice.
	// Absent = no dedup (the pre-resilience behaviour).
	ElemIdem = "idem:key"

	// ElemRetryAfter is a broker backoff hint (milliseconds) attached
	// to rate-limited refusals: the soonest a retry could be admitted.
	// Advisory — clients still jitter around it.
	ElemRetryAfter = "retry:after"
)

// Broker operations (the Broker Module "functions" clients call).
const (
	OpConnect       = "connect"
	OpLogin         = "login"
	OpLogout        = "logout"
	OpSecureConnect = "secureConnection"
	OpSecureLogin   = "secureLogin"
	OpPublishAdv    = "publishAdv"
	OpLookupAdv     = "lookupAdv"
	OpLookupPipe    = "lookupPipe"
	OpListPeers     = "listPeers"
	OpGroupCreate   = "groupCreate"
	OpGroupJoin     = "groupJoin"
	OpGroupLeave    = "groupLeave"
	OpGroupList     = "groupList"
	OpFileSearch    = "fileSearch"
	// OpRelayRound uploads ONE sealed ModeGroup round for broker-side
	// per-recipient slicing and store-and-forward delivery.
	OpRelayRound = "relayRound"
)

// Client-side push operations (functions the broker invokes on clients).
const (
	OpAdvPush = "advPush"
	// OpSliceDeliver pushes one per-recipient round slice cut by the
	// broker relay (immediately, or from the offline queue at login).
	OpSliceDeliver = "sliceDeliver"
)

// File/task operations.
const (
	OpFileGet  = "fileGet"
	OpTaskExec = "taskExec"
)

// OK builds a success response.
func OK() *endpoint.Message {
	return endpoint.NewMessage().AddString(ElemOK, "1")
}

// Fail builds an error response with a stable error token.
func Fail(errToken string) *endpoint.Message {
	return endpoint.NewMessage().AddString(ElemOK, "0").AddString(ElemErr, errToken)
}

// IsOK splits a response into success flag and error token.
func IsOK(m *endpoint.Message) (bool, string) {
	if m == nil {
		return false, "no-response"
	}
	if ok, _ := m.GetString(ElemOK); ok == "1" {
		return true, ""
	}
	errToken, _ := m.GetString(ElemErr)
	if errToken == "" {
		errToken = "unknown"
	}
	return false, errToken
}

// Error tokens returned by the broker.
const (
	ErrAuthFailed     = "auth-failed"
	ErrNotLoggedIn    = "not-logged-in"
	ErrUnknownOp      = "unknown-op"
	ErrBadRequest     = "bad-request"
	ErrNotFound       = "not-found"
	ErrGroupExists    = "group-exists"
	ErrNoGroup        = "no-group"
	ErrSecureRequired = "secure-login-required"
	ErrSecurityOff    = "security-not-enabled"
	ErrBadSid         = "bad-session-id"
	ErrBadSignature   = "bad-signature"
	ErrBadCredential  = "bad-credential"
	ErrCBIDMismatch   = "cbid-mismatch"
	ErrUnsignedAdv    = "unsigned-advertisement"
	ErrRelayOff       = "relay-not-enabled"
	ErrBadRound       = "bad-round-wire"
	// ErrRelayQuota means the sender (or its group) has exhausted its
	// relay queue quota; distinct from ErrRelayOff so clients can back
	// off instead of treating the relay as down.
	ErrRelayQuota = "relay-quota-exceeded"
	// ErrRateLimited means admission control refused the operation: the
	// invoking credential exhausted its token bucket. The broker is
	// healthy and other credentials are unaffected; back off and retry.
	ErrRateLimited = "rate-limited"
	// ErrLeaseExpired means the heartbeat named a presence lease the
	// broker no longer holds — it expired (missed heartbeats) or was
	// superseded by a newer login. The session is gone: re-login
	// (secureConnection + secureLogin), don't retry the heartbeat.
	ErrLeaseExpired = "lease-expired"
)

// OpFedRelaySlice forwards one queued round slice broker-to-broker:
// the recipient's presence migrated to a federation partner, so the
// slice chases it there instead of expiring in the origin's queue.
const OpFedRelaySlice = "fedRelaySlice"
