package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/wire"
	"repro/race/server"
)

// Remote is a raced instance reached over the network: sessions stream over
// the wire protocol to tcpAddr, control and proxying go over HTTP to
// httpAddr. DataDir is the backend's -data-dir as visible to the router
// (shared filesystem), which is what migration copies between.
type Remote struct {
	name     string
	tcpAddr  string
	httpAddr string
	dataDir  string
	base     *url.URL
	hc       *http.Client
	proxy    *httputil.ReverseProxy
	wrapConn func(net.Conn) net.Conn
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
		name:     name,
		tcpAddr:  tcpAddr,
		httpAddr: httpAddr,
		dataDir:  dataDir,
		base:     base,
		hc:       &http.Client{Timeout: 30 * time.Second},
		proxy:    proxy,
	}, nil
}

func (b *Remote) Name() string    { return b.name }
func (b *Remote) DataDir() string { return b.dataDir }

// TCPAddr returns the backend's wire-protocol address.
func (b *Remote) TCPAddr() string { return b.tcpAddr }

// SetConnWrapper installs a wrapper applied to every wire connection the
// backend dials — the router→backend network fault-injection seam
// (fault.WrapConn). Set it before handing the backend to a Router.
func (b *Remote) SetConnWrapper(f func(net.Conn) net.Conn) { b.wrapConn = f }

// dial opens a wire-protocol connection to the backend, applying the
// fault-injection wrapper when one is installed.
func (b *Remote) dial(ctx context.Context) (*server.Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", b.tcpAddr)
	if err != nil {
		return nil, fmt.Errorf("fleet: backend %s: dialing: %w", b.name, err)
	}
	if b.wrapConn != nil {
		conn = b.wrapConn(conn)
	}
	return server.NewClient(conn), nil
}

// post issues a bodyless POST to path and decodes a JSON response into out
// (when non-nil). A non-2xx response becomes a typed error: the backend's
// X-Raced-Error-Code header (when present) is rebuilt into the matching
// sentinel chain, so errors.Is classifies identically to the wire path;
// the body text rides along for humans.
func (b *Remote) post(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base.JoinPath(path).String(), nil)
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
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode/100 != 2 {
		msg := fmt.Sprintf("fleet: backend %s: %s: %s", b.name, resp.Status, strings.TrimSpace(string(body)))
		if code := wire.ErrCode(resp.Header.Get(wire.ErrorCodeHeader)); code != "" {
			return server.RemoteFault(code, msg)
		}
		return errors.New(msg)
	}
	if out != nil {
		return json.Unmarshal(body, out)
	}
	return nil
}

func (b *Remote) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base.JoinPath("/healthz").String(), nil)
	if err != nil {
		return err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: backend %s: %w", b.name, err)
	}
	defer resp.Body.Close()
	var st struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("fleet: backend %s: bad healthz response (%s): %w", b.name, resp.Status, err)
	}
	if st.Draining {
		return ErrBackendDraining
	}
	if !st.OK || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: backend %s: not ready: %s", b.name, strings.TrimSpace(string(body)))
	}
	return nil
}

func (b *Remote) Open(ctx context.Context, id string, cfg server.SessionConfig) (Session, error) {
	c, err := b.dial(ctx)
	if err != nil {
		return nil, err
	}
	sess, err := c.OpenID(ctx, id, cfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &remoteSession{c: c, sess: sess}, nil
}

func (b *Remote) Resume(ctx context.Context, id string) (Session, uint64, error) {
	c, err := b.dial(ctx)
	if err != nil {
		return nil, 0, err
	}
	sess, fed, err := c.Resume(ctx, id)
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
	if err := b.post(ctx, "/admin/sessions/"+url.PathEscape(id)+"/suspend", &resp); err != nil {
		return 0, err
	}
	return resp.Fed, nil
}

func (b *Remote) RecoverSession(ctx context.Context, id string) error {
	return b.post(ctx, "/admin/sessions/"+url.PathEscape(id)+"/recover", nil)
}

func (b *Remote) Drain(ctx context.Context) error {
	return b.post(ctx, "/admin/drain", nil)
}

func (b *Remote) Sessions(ctx context.Context) ([]server.SessionStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base.JoinPath("/sessions").String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: backend %s: %w", b.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: backend %s: listing sessions: %s", b.name, resp.Status)
	}
	var doc struct {
		Sessions []server.SessionStatus `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Sessions, nil
}

func (b *Remote) Proxy(w http.ResponseWriter, r *http.Request) {
	b.proxy.ServeHTTP(w, r)
}

// remoteSession carries one session over a dedicated wire connection.
type remoteSession struct {
	c    *server.Client
	sess *server.RemoteSession
}

// SetFlushContext hands the router's flush span to the backend via the
// next Flush frame's optional trace payload.
func (s *remoteSession) SetFlushContext(sc tracing.SpanContext) { s.sess.SetFlushContext(sc) }

func (s *remoteSession) FeedRecords(recs []byte) error { return s.sess.FeedRecords(recs) }

func (s *remoteSession) Flush() (uint64, error) {
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
