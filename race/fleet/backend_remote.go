package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"time"

	"repro/internal/obs/tracing"
	"repro/race/server"
)

// Remote is a raced instance reached over the network: sessions stream over
// the wire protocol to tcpAddr, control and proxying go over HTTP to
// httpAddr. DataDir is the backend's -data-dir as visible to the router
// (shared filesystem), which is what migration copies between.
type Remote struct {
	name    string
	tcpAddr string
	dataDir string
	base    *url.URL
	hc      *http.Client
	proxy   *httputil.ReverseProxy
}

// NewRemote builds a remote backend. httpAddr is a host:port or URL;
// dataDir may be empty for a memory-only backend (it then cannot take part
// in migrations).
func NewRemote(name, tcpAddr, httpAddr, dataDir string) (*Remote, error) {
	if !strings.Contains(httpAddr, "://") {
		httpAddr = "http://" + httpAddr
	}
	base, err := url.Parse(httpAddr)
	if err != nil {
		return nil, fmt.Errorf("fleet: backend %s: bad http address: %w", name, err)
	}
	proxy := httputil.NewSingleHostReverseProxy(base)
	proxy.ErrorHandler = func(w http.ResponseWriter, _ *http.Request, err error) {
		http.Error(w, fmt.Sprintf("fleet: backend %s: %v", name, err), http.StatusBadGateway)
	}
	return &Remote{
		name:    name,
		tcpAddr: tcpAddr,
		dataDir: dataDir,
		base:    base,
		hc:      &http.Client{Timeout: 30 * time.Second},
		proxy:   proxy,
	}, nil
}

func (b *Remote) Name() string    { return b.name }
func (b *Remote) DataDir() string { return b.dataDir }

// call issues a bodyless request to path and decodes a JSON response into
// out (when non-nil; a failing answer's too, if it is a document). A non-2xx
// response becomes a typed error: the backend's X-Raced-Error-Code header
// (when present) is rebuilt into the matching sentinel chain, so errors.Is
// classifies identically to the wire path; the body text rides along for
// humans.
func (b *Remote) call(ctx context.Context, method, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, b.base.JoinPath(path).String(), nil)
	if err != nil {
		return err
	}
	// Trace context rides the standard header, so a migration's recover
	// lands inside the router's migration span on the backend's trace too.
	if sc := tracing.FromContext(ctx); sc.Valid() {
		req.Header.Set(tracing.Header, sc.Traceparent())
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: backend %s: %w", b.name, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	var bad error
	if out != nil {
		bad = json.Unmarshal(body, out)
	}
	if resp.StatusCode/100 != 2 {
		return answerErr(b.name, resp.StatusCode, resp.Header, strings.TrimSpace(string(body)))
	}
	if bad != nil {
		return fmt.Errorf("fleet: backend %s: bad %s response: %w", b.name, path, bad)
	}
	return nil
}

func (b *Remote) Healthz(ctx context.Context) error {
	var st struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	err := b.call(ctx, http.MethodGet, "/healthz", &st) // a 503 still carries the document
	switch {
	case st.Draining:
		return ErrBackendDraining
	case err == nil && !st.OK:
		return fmt.Errorf("fleet: backend %s: not ready", b.name)
	}
	return err
}

func (b *Remote) Open(ctx context.Context, id string, cfg server.SessionConfig) (Session, error) {
	sess, _, err := b.attach(ctx, func(c *server.Client) (*server.RemoteSession, uint64, error) {
		sess, err := c.OpenID(ctx, id, cfg)
		return sess, 0, err
	})
	return sess, err
}

func (b *Remote) Resume(ctx context.Context, id string) (Session, uint64, error) {
	return b.attach(ctx, func(c *server.Client) (*server.RemoteSession, uint64, error) { return c.Resume(ctx, id) })
}

// attach dials the backend's wire port and runs the handshake that opens or
// resumes the session the connection will carry.
func (b *Remote) attach(ctx context.Context, handshake func(*server.Client) (*server.RemoteSession, uint64, error)) (Session, uint64, error) {
	c, err := server.DialContext(ctx, b.tcpAddr)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: backend %s: %w", b.name, err)
	}
	sess, fed, err := handshake(c)
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	return &remoteSession{c: c, sess: sess}, fed, nil
}

func (b *Remote) Suspend(ctx context.Context, id string) (uint64, error) {
	var resp struct {
		Fed uint64 `json:"fed"`
	}
	if err := b.call(ctx, http.MethodPost, "/admin/sessions/"+url.PathEscape(id)+"/suspend", &resp); err != nil {
		return 0, err
	}
	return resp.Fed, nil
}

func (b *Remote) RecoverSession(ctx context.Context, id string) error {
	return b.call(ctx, http.MethodPost, "/admin/sessions/"+url.PathEscape(id)+"/recover", nil)
}

func (b *Remote) Drain(ctx context.Context) error {
	return b.call(ctx, http.MethodPost, "/admin/drain", nil)
}

func (b *Remote) Sessions(ctx context.Context) ([]server.SessionStatus, error) {
	var doc struct {
		Sessions []server.SessionStatus `json:"sessions"`
	}
	err := b.call(ctx, http.MethodGet, "/sessions", &doc)
	return doc.Sessions, err
}

func (b *Remote) Proxy(w http.ResponseWriter, r *http.Request) {
	b.proxy.ServeHTTP(w, r)
}

// remoteSession carries one session over a dedicated wire connection.
type remoteSession struct {
	c    *server.Client
	sess *server.RemoteSession
}

func (s *remoteSession) FeedRecords(recs []byte) error { return s.sess.FeedRecords(recs) }

// Flush hands parent to the backend in the Flush frame's optional trace
// payload.
func (s *remoteSession) Flush(parent tracing.SpanContext) (uint64, error) {
	s.sess.SetFlushContext(parent)
	if err := s.sess.Flush(); err != nil {
		return 0, err
	}
	return s.sess.Flushed(), nil
}

func (s *remoteSession) Close() ([]byte, error) {
	doc, err := s.sess.CloseJSON()
	s.c.Close()
	return doc, err
}

func (s *remoteSession) Release() { s.c.Close() }
