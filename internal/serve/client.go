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

// Client speaks the daemon's HTTP/JSON API. The zero HTTP client is fine;
// the wire format is small JSON plus raw JSONL chunks.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// do issues one request and decodes a JSON response into out (when
// non-nil). 409 maps to ErrLeaseGone, 204 to a nil result.
func (c *Client) do(method, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequest(method, strings.TrimRight(c.BaseURL, "/")+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusConflict:
		return ErrLeaseGone
	case resp.StatusCode == http.StatusNoContent:
		return errNoContent
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// errNoContent is internal: a 204 lease poll (nothing schedulable).
var errNoContent = fmt.Errorf("no content")

func (c *Client) postJSON(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do("POST", path, "application/json", body, out)
}

// Submit registers a campaign and returns its ID.
func (c *Client) Submit(spec CampaignSpec) (string, error) {
	var resp struct {
		ID string `json:"id"`
	}
	if err := c.postJSON("/campaigns", spec, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Status fetches every campaign's live status.
func (c *Client) Status() ([]CampaignStatus, error) {
	var resp struct {
		Campaigns []CampaignStatus `json:"campaigns"`
	}
	if err := c.do("GET", "/status", "", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Campaigns, nil
}

// Campaign fetches one campaign's live status.
func (c *Client) Campaign(id string) (CampaignStatus, error) {
	var st CampaignStatus
	err := c.do("GET", "/campaigns/"+id, "", nil, &st)
	return st, err
}

// Acquire polls for a lease, advertising the worker's capability tags;
// nil means nothing is schedulable right now.
func (c *Client) Acquire(worker string, caps ...string) (*LeaseGrant, error) {
	var grant LeaseGrant
	err := c.postJSON("/lease", map[string]any{"worker": worker, "caps": caps}, &grant)
	if err == errNoContent {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return &grant, nil
}

// Claim files a crash-state class claim on the lease.
func (c *Client) Claim(leaseID string, fingerprint uint64) (ClaimReply, error) {
	var reply ClaimReply
	err := c.postJSON("/leases/"+leaseID+"/claim", map[string]any{"fpr": fingerprint}, &reply)
	return reply, err
}

// SendLines streams a chunk of checkpoint JSONL (newline-terminated) to
// the lease; the send doubles as a heartbeat.
func (c *Client) SendLines(leaseID string, chunk []byte) error {
	return c.do("POST", "/leases/"+leaseID+"/lines", "application/x-ndjson", chunk, nil)
}

// FetchArtifact downloads the lease's campaign artifact (raw XFDR bytes)
// into dst. The download doubles as a heartbeat.
func (c *Client) FetchArtifact(leaseID string, dst io.Writer) error {
	req, err := http.NewRequest("GET", strings.TrimRight(c.BaseURL, "/")+"/leases/"+leaseID+"/artifact", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusConflict:
		return ErrLeaseGone
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET artifact: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	_, err = io.Copy(dst, resp.Body)
	return err
}

// Heartbeat renews the lease deadline without sending lines.
func (c *Client) Heartbeat(leaseID string) error {
	return c.postJSON("/leases/"+leaseID+"/heartbeat", struct{}{}, nil)
}

// Finish resolves the lease with the shard's exit code, or releases it
// for rescheduling (released=true) on worker-initiated teardown.
func (c *Client) Finish(leaseID string, code int, released bool) error {
	return c.postJSON("/leases/"+leaseID+"/done", map[string]any{"code": code, "released": released}, nil)
}

// WaitDone polls until the campaign leaves the running state, reporting
// progress through onChange (may be nil) whenever coverage advances.
func (c *Client) WaitDone(ctx context.Context, id string, poll time.Duration, onChange func(CampaignStatus)) (CampaignStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	lastCovered := -1
	for {
		st, err := c.Campaign(id)
		if err != nil {
			return CampaignStatus{}, err
		}
		if onChange != nil && st.Covered != lastCovered {
			lastCovered = st.Covered
			onChange(st)
		}
		if st.State != campaignRunning {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}
