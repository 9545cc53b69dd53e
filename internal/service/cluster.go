package service

import (
	"bytes"
	"io"
	"net/http"
	"strconv"

	"bioperfload/internal/cluster"
	"bioperfload/internal/runner"
)

// Fleet HTTP headers. Forwarded marks a request already proxied once
// (so an overloaded primary never proxies it again); ForwardedTo and
// Degraded mark the response so clients and tests can see which rung
// of the overload ladder answered.
const (
	HeaderForwarded   = "X-Bioperfd-Forwarded"
	HeaderForwardedTo = "X-Bioperfd-Forwarded-To"
	HeaderDegraded    = "X-Bioperfd-Degraded"
)

// --- peer artifact protocol ---

// registerPeerRoutes installs the artifact wire protocol. The routes
// exist whenever the session has a store — a storeless node has
// nothing to serve and nothing to admit. Artifacts travel only by
// store key; no route serves an object by content hash.
func (s *Server) registerPeerRoutes() {
	s.mux.Handle("GET /v1/snapshots/{key}", s.instrument("snapshots", s.handlePeerSnapshot))
	s.mux.Handle("PUT /v1/snapshots/{key}", s.instrument("snapshots", s.handlePeerPut))
}

// handlePeerSnapshot serves GET /v1/snapshots/{key}: the artifact a
// store key points at (the key travels path-escaped; PathValue
// decodes it), streamed from disk with the transfer headers the
// receiving side verifies against.
func (s *Server) handlePeerSnapshot(w http.ResponseWriter, r *http.Request) {
	st := s.session.Store()
	if st == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no artifact store attached"})
		return
	}
	rc, info, ok := st.OpenObject(r.PathValue("key"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown artifact key"})
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
	w.Header().Set(cluster.HeaderSHA256, info.Hash)
	w.Header().Set(cluster.HeaderCRC32, strconv.FormatUint(uint64(info.CRC), 10))
	io.Copy(w, rc)
}

// handlePeerPut admits a replicated artifact: PUT /v1/snapshots/{key}
// with the body verified against its transfer headers, and its artifact
// header against the key, before it may touch the store. A push whose
// checksums disagree, or whose bytes answer another key or kind, is
// rejected with 400 — the sender counts it and gives up; nothing corrupt
// or foreign replaces a local entry.
func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	st := s.session.Store()
	if st == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no artifact store attached"})
		return
	}
	key := r.PathValue("key")
	body, err := io.ReadAll(io.LimitReader(r.Body, cluster.MaxArtifact+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "read body: " + err.Error()})
		return
	}
	if len(body) > cluster.MaxArtifact {
		writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: "artifact exceeds size limit"})
		return
	}
	if err := cluster.VerifyBody(body, r.Header); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if err := runner.CheckArtifact(key, body); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if err := st.PutBytes(key, body); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- overload ladder ---

// shedForward proxies the original request to the key's primary node.
// It reports true only when the primary produced a usable answer
// (anything but a 5xx/429/transport failure), in which case the
// response has already been written. Requests that were themselves
// forwarded are never forwarded again.
func (s *Server) shedForward(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	c := s.cfg.Cluster
	if c == nil || r.Header.Get(HeaderForwarded) != "" {
		return false
	}
	primary := c.Primary(key)
	if primary == "" || primary == c.Self() || !c.Client().Available(primary) {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, primary+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderForwarded, c.Self())
	resp, err := s.forwardClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		// The primary is as hot as we are; fall down the ladder.
		io.Copy(io.Discard, resp.Body)
		return false
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return false
	}
	s.metrics.ObserveShed("forward")
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.Header().Set(HeaderForwardedTo, primary)
	if d := resp.Header.Get(HeaderDegraded); d != "" {
		w.Header().Set(HeaderDegraded, d)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(out)
	return true
}

// ClusterHealth is the fleet slice of the /healthz document.
type ClusterHealth struct {
	Self     string              `json:"self"`
	Members  []string            `json:"members"`
	Replicas int                 `json:"replicas"`
	Peers    []cluster.PeerState `json:"peers,omitempty"`
	Stats    cluster.Stats       `json:"stats"`
}

func (s *Server) clusterHealth() *ClusterHealth {
	c := s.cfg.Cluster
	if c == nil {
		return nil
	}
	return &ClusterHealth{
		Self:     c.Self(),
		Members:  c.Members(),
		Replicas: c.Replicas(),
		Peers:    c.Client().Peers(),
		Stats:    c.Stats(),
	}
}

// serveSources maps the session's tier counters onto the canonical
// serve-source breakdown: snapshot | replay | peer | cold | sampled.
func (s *Server) serveSources() map[string]uint64 {
	st := s.session.Stats()
	return map[string]uint64{
		"snapshot": st.ProfileHits,
		"replay":   st.ReplayRuns,
		"peer":     st.PeerHits,
		"cold":     st.ColdChars,
		"sampled":  st.SampledChars + st.SampledHits,
	}
}

// evaluateSources is the same breakdown for timing jobs: memo | store
// | peer | cold. It is a series of its own, so serve_sources keeps
// counting characterizations only.
func (s *Server) evaluateSources() map[string]uint64 {
	st := s.session.Stats()
	return map[string]uint64{
		"memo":  st.EvaluateMemoHits,
		"store": st.EvaluateStoreHits,
		"peer":  st.EvaluatePeerHits,
		"cold":  st.EvaluateCold,
	}
}
