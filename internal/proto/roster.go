package proto

import (
	"strings"
	"unicode"
)

// The peer roster (OpListPeers) is one ElemPeers element: a line per
// peer, "ID|username|status", the lines joined by '\n'. Peer IDs and
// statuses are the overlay's own; a username is whatever was registered,
// so one holding '|' or a control character is refused at registration
// (ValidUsername): a '|' would shift the status a reader takes from its
// line, and a '\n' would add a line of the registrant's choosing.

// AppendRosterLine appends the roster line of one peer to dst, behind a
// '\n' when dst already holds a line.
func AppendRosterLine(dst []byte, id, username, status string) []byte {
	if len(dst) > 0 {
		dst = append(dst, '\n')
	}
	dst = append(dst, id...)
	dst = append(dst, '|')
	dst = append(dst, username...)
	dst = append(dst, '|')
	return append(dst, status...)
}

// ValidUsername reports whether name can be registered: it is not empty
// and holds no '|' and no control character, so its roster line says
// what it should.
func ValidUsername(name string) bool {
	return name != "" && !strings.ContainsFunc(name, func(r rune) bool {
		return r == '|' || unicode.IsControl(r)
	})
}
