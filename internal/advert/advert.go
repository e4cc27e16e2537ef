// Package advert defines the advertisement types a JXTA-Overlay network
// exchanges. Advertisements are XML metadata documents (xmldoc trees)
// describing peers, pipes, presence, shared files, statistics and
// groups; client peers broadcast one set per group they belong to, and
// brokers propagate them across boundaries.
//
// The paper's point of attack: since the original middleware neither
// signs nor verifies these documents, "any legitimate user may forge
// advertisements with no fear of reprisal". The security extension signs
// them with xdsig; this package stays signature-agnostic — parsers
// tolerate and preserve foreign child elements such as <Signature>.
package advert

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// Advertisement type names (XML root element names).
const (
	TypePeer     = "PeerAdvertisement"
	TypePipe     = "PipeAdvertisement"
	TypePresence = "PresenceAdvertisement"
	TypeFileList = "FileListAdvertisement"
	TypeStats    = "StatsAdvertisement"
	TypeGroup    = "GroupAdvertisement"
)

// DefaultLifetime is how long an advertisement stays fresh in discovery
// caches unless the type overrides it.
const DefaultLifetime = 15 * time.Minute

// Advertisement is the common behaviour of every advertisement type.
type Advertisement interface {
	// AdvType returns the XML root element name.
	AdvType() string
	// AdvID is the identity used for cache replacement: re-publishing an
	// advertisement with the same AdvID overwrites the previous copy.
	AdvID() string
	// Document serializes the advertisement to XML.
	Document() (*xmldoc.Element, error)
	// Lifetime is the cache freshness window.
	Lifetime() time.Duration
}

// ErrUnknownType is returned when parsing an unregistered root element.
var ErrUnknownType = errors.New("advert: unknown advertisement type")

// parseCalls counts Parse invocations. The broker publish path promises
// to parse each advertisement exactly once; tests assert that promise on
// this counter rather than trusting the call graph.
var parseCalls atomic.Uint64

// ParseCalls reports how many times Parse has run (process-wide).
func ParseCalls() uint64 { return parseCalls.Load() }

// Parse dispatches on the document's root element name.
func Parse(doc *xmldoc.Element) (Advertisement, error) {
	parseCalls.Add(1)
	if doc == nil {
		return nil, errors.New("advert: nil document")
	}
	switch doc.Name {
	case TypePeer:
		return ParsePeer(doc)
	case TypePipe:
		return ParsePipe(doc)
	case TypePresence:
		return ParsePresence(doc)
	case TypeFileList:
		return ParseFileList(doc)
	case TypeStats:
		return ParseStats(doc)
	case TypeGroup:
		return ParseGroup(doc)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, doc.Name)
	}
}

// NewID mints a random identifier with the given URN prefix, e.g.
// NewID("group") → "urn:jxta:group-<32 hex chars>".
func NewID(kind string) (string, error) {
	b, err := keys.RandomBytes(16)
	if err != nil {
		return "", err
	}
	return "urn:jxta:" + kind + "-" + hex.EncodeToString(b), nil
}

// GroupPipeID is the identifier of a peer's input pipe in a group:
// "urn:jxta:pipe-" and the first 16 bytes, in hex, of SHA-256 over a
// domain tag, the length-prefixed peer ID and the group. It is derived,
// not minted, so that a peer has one pipe advertisement per group however
// often it joins: a re-join's advertisement has its predecessor's AdvID
// and replaces it in every cache, and an identifier the holder cannot
// choose is not a way to fill those caches. Nothing rests on the ID being
// unguessable — who may publish under it is decided by the signature and
// ownership checks, as for the peer/group-keyed advertisement types.
func GroupPipeID(peer keys.PeerID, group string) string {
	id := GroupPipeKey(peer, group)
	return string(id[:])
}

// groupPipePrefix begins every group pipe's ID.
const groupPipePrefix = "urn:jxta:pipe-"

// GroupPipeKey is GroupPipeID's bytes, for a lookup that builds no string
// (discovery.Cache.LookupID).
func GroupPipeKey(peer keys.PeerID, group string) [len(groupPipePrefix) + 32]byte {
	buf := make([]byte, 0, 160) // on the stack for any real peer ID and group
	buf = append(buf, "jxta-overlay/group-pipe/v1"...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(peer)))
	buf = append(buf, peer...)
	buf = append(buf, group...)
	sum := sha256.Sum256(buf)
	var id [len(groupPipePrefix) + 32]byte
	copy(id[:], groupPipePrefix)
	hex.Encode(id[len(groupPipePrefix):], sum[:16])
	return id
}

// --- PeerAdvertisement ---

// Peer describes a peer: its identifier, human name and the services it
// runs.
type Peer struct {
	PeerID   keys.PeerID
	Name     string
	Desc     string
	Services []string
}

func (p *Peer) AdvType() string         { return TypePeer }
func (p *Peer) AdvID() string           { return string(p.PeerID) }
func (p *Peer) Lifetime() time.Duration { return DefaultLifetime }

// Document implements Advertisement.
func (p *Peer) Document() (*xmldoc.Element, error) {
	if p.PeerID == "" {
		return nil, errors.New("advert: peer advertisement requires PeerID")
	}
	doc := xmldoc.New(TypePeer, "")
	doc.AddText("PeerID", string(p.PeerID))
	doc.AddText("Name", p.Name)
	doc.AddText("Desc", p.Desc)
	svcs := xmldoc.New("Services", "")
	for _, s := range p.Services {
		svcs.AddText("Service", s)
	}
	doc.Add(svcs)
	return doc, nil
}

// ParsePeer reads a PeerAdvertisement.
func ParsePeer(doc *xmldoc.Element) (*Peer, error) {
	if doc.Name != TypePeer {
		return nil, fmt.Errorf("advert: not a %s", TypePeer)
	}
	p := &Peer{
		PeerID: keys.PeerID(doc.ChildText("PeerID")),
		Name:   doc.ChildText("Name"),
		Desc:   doc.ChildText("Desc"),
	}
	if p.PeerID == "" {
		return nil, errors.New("advert: peer advertisement missing PeerID")
	}
	if svcs := doc.Child("Services"); svcs != nil {
		for _, s := range svcs.ChildrenNamed("Service") {
			p.Services = append(p.Services, s.Text)
		}
	}
	return p, nil
}

// --- PipeAdvertisement ---

// PipeUnicast is the one pipe type: a peer's input pipe for one group.
const PipeUnicast = "JxtaUnicast"

// Pipe describes a virtual communication channel endpoint: which peer
// hosts it, its identifier, and the group it serves. A client peer has
// one input pipe per group; a broker has none. Name is free text nothing
// reads: a group pipe leaves it empty, and an empty Name is not written.
type Pipe struct {
	PipeID   string
	PipeType string
	Name     string
	PeerID   keys.PeerID
	Group    string
}

func (p *Pipe) AdvType() string         { return TypePipe }
func (p *Pipe) AdvID() string           { return p.PipeID }
func (p *Pipe) Lifetime() time.Duration { return DefaultLifetime }

// Document implements Advertisement.
func (p *Pipe) Document() (*xmldoc.Element, error) {
	if p.PipeID == "" || p.PeerID == "" {
		return nil, errors.New("advert: pipe advertisement requires PipeID and PeerID")
	}
	doc := xmldoc.New(TypePipe, "")
	doc.AddText("Id", p.PipeID)
	doc.AddText("Type", p.PipeType)
	if p.Name != "" {
		doc.AddText("Name", p.Name)
	}
	doc.AddText("PeerID", string(p.PeerID))
	doc.AddText("Group", p.Group)
	return doc, nil
}

// ParsePipe reads a PipeAdvertisement.
func ParsePipe(doc *xmldoc.Element) (*Pipe, error) {
	if doc.Name != TypePipe {
		return nil, fmt.Errorf("advert: not a %s", TypePipe)
	}
	p := &Pipe{
		PipeID:   doc.ChildText("Id"),
		PipeType: doc.ChildText("Type"),
		Name:     doc.ChildText("Name"),
		PeerID:   keys.PeerID(doc.ChildText("PeerID")),
		Group:    doc.ChildText("Group"),
	}
	if p.PipeID == "" || p.PeerID == "" {
		return nil, errors.New("advert: pipe advertisement missing Id or PeerID")
	}
	if p.PipeType != PipeUnicast {
		return nil, fmt.Errorf("advert: unknown pipe type %q", p.PipeType)
	}
	return p, nil
}

// --- PresenceAdvertisement ---

// Presence statuses.
const (
	StatusOnline  = "online"
	StatusOffline = "offline"
)

// Presence is the periodic liveness notification a client broadcasts for
// each of its groups.
type Presence struct {
	PeerID keys.PeerID
	Name   string
	Group  string
	Status string
	Seen   time.Time
}

func (p *Presence) AdvType() string         { return TypePresence }
func (p *Presence) AdvID() string           { return string(p.PeerID) + "/" + p.Group }
func (p *Presence) Lifetime() time.Duration { return 2 * time.Minute }

// Document implements Advertisement.
func (p *Presence) Document() (*xmldoc.Element, error) {
	if p.PeerID == "" {
		return nil, errors.New("advert: presence requires PeerID")
	}
	doc := xmldoc.New(TypePresence, "")
	doc.AddText("PeerID", string(p.PeerID))
	doc.AddText("Name", p.Name)
	doc.AddText("Group", p.Group)
	doc.AddText("Status", p.Status)
	doc.AddText("Seen", p.Seen.UTC().Format(time.RFC3339))
	return doc, nil
}

// ParsePresence reads a PresenceAdvertisement.
func ParsePresence(doc *xmldoc.Element) (*Presence, error) {
	if doc.Name != TypePresence {
		return nil, fmt.Errorf("advert: not a %s", TypePresence)
	}
	seen, err := time.Parse(time.RFC3339, doc.ChildText("Seen"))
	if err != nil {
		return nil, fmt.Errorf("advert: presence Seen: %w", err)
	}
	p := &Presence{
		PeerID: keys.PeerID(doc.ChildText("PeerID")),
		Name:   doc.ChildText("Name"),
		Group:  doc.ChildText("Group"),
		Status: doc.ChildText("Status"),
		Seen:   seen,
	}
	if p.PeerID == "" {
		return nil, errors.New("advert: presence missing PeerID")
	}
	return p, nil
}

// --- FileListAdvertisement ---

// FileEntry is one shared file in a file-list advertisement.
type FileEntry struct {
	Name   string
	Size   int64
	Digest string // hex SHA-256 of content
}

// FileList announces the files a peer shares with a group.
type FileList struct {
	PeerID keys.PeerID
	Group  string
	Files  []FileEntry
}

func (f *FileList) AdvType() string         { return TypeFileList }
func (f *FileList) AdvID() string           { return string(f.PeerID) + "/" + f.Group }
func (f *FileList) Lifetime() time.Duration { return DefaultLifetime }

// Document implements Advertisement.
func (f *FileList) Document() (*xmldoc.Element, error) {
	if f.PeerID == "" {
		return nil, errors.New("advert: file list requires PeerID")
	}
	doc := xmldoc.New(TypeFileList, "")
	doc.AddText("PeerID", string(f.PeerID))
	doc.AddText("Group", f.Group)
	for _, fe := range f.Files {
		e := xmldoc.New("File", "")
		e.AddText("Name", fe.Name)
		e.AddText("Size", strconv.FormatInt(fe.Size, 10))
		e.AddText("Digest", fe.Digest)
		doc.Add(e)
	}
	return doc, nil
}

// ParseFileList reads a FileListAdvertisement.
func ParseFileList(doc *xmldoc.Element) (*FileList, error) {
	if doc.Name != TypeFileList {
		return nil, fmt.Errorf("advert: not a %s", TypeFileList)
	}
	f := &FileList{
		PeerID: keys.PeerID(doc.ChildText("PeerID")),
		Group:  doc.ChildText("Group"),
	}
	if f.PeerID == "" {
		return nil, errors.New("advert: file list missing PeerID")
	}
	for _, fe := range doc.ChildrenNamed("File") {
		size, err := strconv.ParseInt(fe.ChildText("Size"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("advert: file size: %w", err)
		}
		f.Files = append(f.Files, FileEntry{
			Name:   fe.ChildText("Name"),
			Size:   size,
			Digest: fe.ChildText("Digest"),
		})
	}
	return f, nil
}

// --- StatsAdvertisement ---

// Stats carries the periodic performance counters JXTA-Overlay peers
// publish (the middleware uses them for broker selection and monitoring).
type Stats struct {
	PeerID    keys.PeerID
	Group     string
	MsgsSent  uint64
	MsgsRecv  uint64
	BytesSent uint64
	BytesRecv uint64
	UptimeSec uint64
}

func (s *Stats) AdvType() string         { return TypeStats }
func (s *Stats) AdvID() string           { return string(s.PeerID) + "/" + s.Group }
func (s *Stats) Lifetime() time.Duration { return 5 * time.Minute }

// Document implements Advertisement.
func (s *Stats) Document() (*xmldoc.Element, error) {
	if s.PeerID == "" {
		return nil, errors.New("advert: stats requires PeerID")
	}
	doc := xmldoc.New(TypeStats, "")
	doc.AddText("PeerID", string(s.PeerID))
	doc.AddText("Group", s.Group)
	doc.AddText("MsgsSent", strconv.FormatUint(s.MsgsSent, 10))
	doc.AddText("MsgsRecv", strconv.FormatUint(s.MsgsRecv, 10))
	doc.AddText("BytesSent", strconv.FormatUint(s.BytesSent, 10))
	doc.AddText("BytesRecv", strconv.FormatUint(s.BytesRecv, 10))
	doc.AddText("UptimeSec", strconv.FormatUint(s.UptimeSec, 10))
	return doc, nil
}

// ParseStats reads a StatsAdvertisement.
func ParseStats(doc *xmldoc.Element) (*Stats, error) {
	if doc.Name != TypeStats {
		return nil, fmt.Errorf("advert: not a %s", TypeStats)
	}
	s := &Stats{
		PeerID: keys.PeerID(doc.ChildText("PeerID")),
		Group:  doc.ChildText("Group"),
	}
	if s.PeerID == "" {
		return nil, errors.New("advert: stats missing PeerID")
	}
	for _, f := range []struct {
		name string
		dst  *uint64
	}{
		{"MsgsSent", &s.MsgsSent}, {"MsgsRecv", &s.MsgsRecv},
		{"BytesSent", &s.BytesSent}, {"BytesRecv", &s.BytesRecv},
		{"UptimeSec", &s.UptimeSec},
	} {
		v, err := strconv.ParseUint(doc.ChildText(f.name), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("advert: stats %s: %w", f.name, err)
		}
		*f.dst = v
	}
	return s, nil
}

// --- GroupAdvertisement ---

// Group announces a peer group and who created it.
type Group struct {
	GroupID string
	Name    string
	Desc    string
	Creator keys.PeerID
}

func (g *Group) AdvType() string         { return TypeGroup }
func (g *Group) AdvID() string           { return g.GroupID }
func (g *Group) Lifetime() time.Duration { return time.Hour }

// Document implements Advertisement.
func (g *Group) Document() (*xmldoc.Element, error) {
	if g.GroupID == "" {
		return nil, errors.New("advert: group advertisement requires GroupID")
	}
	doc := xmldoc.New(TypeGroup, "")
	doc.AddText("GroupID", g.GroupID)
	doc.AddText("Name", g.Name)
	doc.AddText("Desc", g.Desc)
	doc.AddText("Creator", string(g.Creator))
	return doc, nil
}

// ParseGroup reads a GroupAdvertisement.
func ParseGroup(doc *xmldoc.Element) (*Group, error) {
	if doc.Name != TypeGroup {
		return nil, fmt.Errorf("advert: not a %s", TypeGroup)
	}
	g := &Group{
		GroupID: doc.ChildText("GroupID"),
		Name:    doc.ChildText("Name"),
		Desc:    doc.ChildText("Desc"),
		Creator: keys.PeerID(doc.ChildText("Creator")),
	}
	if g.GroupID == "" {
		return nil, errors.New("advert: group advertisement missing GroupID")
	}
	return g, nil
}
