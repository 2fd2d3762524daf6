package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to a running bufinsd. The zero HTTP client gets a generous
// timeout — cold prepares on the big circuits take seconds.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8077"
	HTTP *http.Client
}

// NewClient builds a client for a server base URL.
func NewClient(base string) *Client {
	return &Client{
		Base: strings.TrimRight(base, "/"),
		HTTP: &http.Client{Timeout: 10 * time.Minute},
	}
}

// post sends one JSON request under ctx and decodes the JSON response into out.
// Non-2xx responses surface the server's error message.
func (c *Client) post(ctx context.Context, path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(hreq)
	if err != nil {
		return fmt.Errorf("serve: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("serve: reading %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("serve: %s: %s (HTTP %d)", path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("serve: %s: HTTP %d", path, resp.StatusCode)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("serve: decoding %s response: %w", path, err)
	}
	return nil
}

// Prepare warms the server's bench cache.
func (c *Client) Prepare(ctx context.Context, req PrepareRequest) (*PrepareResponse, error) {
	var out PrepareResponse
	if err := c.post(ctx, "/v1/prepare", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Insert runs (or replays) the insertion flow server-side.
func (c *Client) Insert(ctx context.Context, req InsertRequest) (*InsertResponse, error) {
	var out InsertResponse
	if err := c.post(ctx, "/v1/insert", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Yield evaluates a batch of yield queries server-side.
func (c *Client) Yield(ctx context.Context, req YieldRequest) (*YieldResponse, error) {
	var out YieldResponse
	if err := c.post(ctx, "/v1/yield", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes /healthz.
func (c *Client) Health() error {
	resp, err := c.HTTP.Get(c.Base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}
