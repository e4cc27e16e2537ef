// Package filesvc implements JXTA-Overlay's file sharing primitives:
// peers announce shared files per group through FileListAdvertisements
// (indexed by the broker), search the index by keyword, and download
// directly from the sharing peer in integrity-checked chunks.
//
// As with the rest of the original middleware, the transfer path is
// unauthenticated; the digests protect against corruption, not against
// an adversarial sender. The security extension's envelope can wrap the
// chunks (see internal/core) when confidential transfer is needed.
package filesvc

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/xmldoc"
)

// ChunkSize is the transfer unit.
const ChunkSize = 16 * 1024

// Errors returned by the service.
var (
	ErrIntegrity = errors.New("filesvc: digest mismatch")
	ErrTransfer  = errors.New("filesvc: transfer failed")
)

type sharedFile struct {
	content []byte
	digest  string
}

// Result is one search hit.
type Result struct {
	Peer  keys.PeerID
	Group string
	File  advert.FileEntry
}

// Service provides the file primitives for one client peer.
type Service struct {
	cl *client.Client

	mu     sync.RWMutex
	shares map[string]map[string]*sharedFile // group → name → file
}

// New attaches the file service to a client peer.
func New(cl *client.Client) *Service {
	s := &Service{
		cl:     cl,
		shares: make(map[string]map[string]*sharedFile),
	}
	cl.Endpoint().RegisterHandler(proto.FileService, s.handleGet)
	return s
}

// Share publishes a file to a group: the content is retained in the
// local share table and the group's FileListAdvertisement is re-issued.
func (s *Service) Share(ctx context.Context, group, name string, content []byte) error {
	if name == "" {
		return errors.New("filesvc: empty file name")
	}
	digest := hex.EncodeToString(keys.SHA256(content))
	s.mu.Lock()
	if s.shares[group] == nil {
		s.shares[group] = make(map[string]*sharedFile)
	}
	s.shares[group][name] = &sharedFile{content: append([]byte(nil), content...), digest: digest}
	s.mu.Unlock()
	return s.publishList(ctx, group)
}

// Unshare withdraws a file and re-publishes the group list.
func (s *Service) Unshare(ctx context.Context, group, name string) error {
	s.mu.Lock()
	if files := s.shares[group]; files != nil {
		delete(files, name)
	}
	s.mu.Unlock()
	return s.publishList(ctx, group)
}

// Shared lists the files currently shared with a group, sorted by name.
func (s *Service) Shared(group string) []advert.FileEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []advert.FileEntry
	for name, f := range s.shares[group] {
		out = append(out, advert.FileEntry{Name: name, Size: int64(len(f.content)), Digest: f.digest})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *Service) publishList(ctx context.Context, group string) error {
	list := &advert.FileList{
		PeerID: s.cl.PeerID(),
		Group:  group,
		Files:  s.Shared(group),
	}
	return s.cl.PublishAdv(ctx, list)
}

// Search queries the broker's file index by keyword (substring match on
// file names), optionally restricted to a group.
func (s *Service) Search(ctx context.Context, keyword, group string) ([]Result, error) {
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpFileSearch).
		AddString(proto.ElemKeyword, keyword).
		AddString(proto.ElemGroup, group)
	resp, err := s.cl.Call(ctx, msg)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, el := range resp.Elements {
		if el.Name != proto.ElemAdv {
			continue
		}
		doc, err := xmldoc.ParseCanonical(el.Data)
		if err != nil {
			continue
		}
		fl, err := advert.ParseFileList(doc)
		if err != nil {
			continue
		}
		for _, f := range fl.Files {
			if keyword == "" || bytes.Contains([]byte(f.Name), []byte(keyword)) {
				out = append(out, Result{Peer: fl.PeerID, Group: fl.Group, File: f})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Peer != out[j].Peer {
			return out[i].Peer < out[j].Peer
		}
		return out[i].File.Name < out[j].File.Name
	})
	return out, nil
}

// Download fetches a file from a peer chunk by chunk and verifies the
// whole-file digest. The FileReceived event fires on success.
func (s *Service) Download(ctx context.Context, peer keys.PeerID, name string) ([]byte, error) {
	var buf bytes.Buffer
	var wantDigest string
	total := 1
	for chunk := 0; chunk < total; chunk++ {
		msg := endpoint.NewMessage().
			AddString(proto.ElemOp, proto.OpFileGet).
			AddString(proto.ElemFileName, name).
			AddString(proto.ElemFileChunk, strconv.Itoa(chunk))
		resp, err := s.cl.Endpoint().Request(ctx, peer, proto.FileService, msg)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTransfer, err)
		}
		if ok, errToken := proto.IsOK(resp); !ok {
			return nil, fmt.Errorf("%w: %s", ErrTransfer, errToken)
		}
		nchunks, _ := resp.GetString(proto.ElemFileCount)
		if n, err := strconv.Atoi(nchunks); err == nil && n > 0 {
			total = n
		}
		wantDigest, _ = resp.GetString(proto.ElemFileSum)
		data, _ := resp.Get(proto.ElemFileData)
		buf.Write(data)
	}
	got := hex.EncodeToString(keys.SHA256(buf.Bytes()))
	if wantDigest != "" && got != wantDigest {
		return nil, ErrIntegrity
	}
	s.cl.Bus().Emit(events.Event{
		Type: events.FileReceived,
		From: peer,
		Payload: map[string]string{
			"name":   name,
			"digest": got,
			"size":   strconv.Itoa(buf.Len()),
		},
	})
	return buf.Bytes(), nil
}

// handleGet serves chunk requests from other peers.
func (s *Service) handleGet(_ keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	op, _ := msg.GetString(proto.ElemOp)
	if op != proto.OpFileGet {
		return proto.Fail(proto.ErrUnknownOp)
	}
	name, _ := msg.GetString(proto.ElemFileName)
	chunkStr, _ := msg.GetString(proto.ElemFileChunk)
	chunk, err := strconv.Atoi(chunkStr)
	if err != nil || chunk < 0 {
		return proto.Fail(proto.ErrBadRequest)
	}
	s.mu.RLock()
	var file *sharedFile
	for _, files := range s.shares {
		if f, ok := files[name]; ok {
			file = f
			break
		}
	}
	s.mu.RUnlock()
	if file == nil {
		return proto.Fail(proto.ErrNotFound)
	}
	nchunks := (len(file.content) + ChunkSize - 1) / ChunkSize
	if nchunks == 0 {
		nchunks = 1
	}
	if chunk >= nchunks {
		return proto.Fail(proto.ErrBadRequest)
	}
	start := chunk * ChunkSize
	end := start + ChunkSize
	if end > len(file.content) {
		end = len(file.content)
	}
	return proto.OK().
		Add(proto.ElemFileData, file.content[start:end]).
		AddString(proto.ElemFileCount, strconv.Itoa(nchunks)).
		AddString(proto.ElemFileSize, strconv.Itoa(len(file.content))).
		AddString(proto.ElemFileSum, file.digest)
}
