package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// maxFetch bounds what one fetch reads of a response body.
const maxFetch = 32 << 20

// fetchJSON reads one JSON document from a running process's debug or
// metrics surface into v. base may be "host:port", "http://host:port" or
// the full URL ending in path — the forms every subcommand that reads an
// endpoint accepts; query, when set, is the handler's filter parameters.
func fetchJSON(ctx context.Context, base, path string, query url.Values, v any) error {
	u := base
	if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
		u = "http://" + u
	}
	if !strings.HasSuffix(u, path) {
		u = strings.TrimSuffix(u, "/") + path
	}
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s returned %s", u, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxFetch))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("bad response from %s: %w", u, err)
	}
	return nil
}
