package shard

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"time"

	"softdb/internal/obs"
	"softdb/internal/server"
)

// FrontendConfig tunes the router's wire front end.
type FrontendConfig struct {
	// Addr is the TCP listen address; ":0" picks an ephemeral port.
	Addr string
	// IdleTimeout closes a connection that sends no request for this
	// long; 0 means never.
	IdleTimeout time.Duration
	// Logger, when non-nil, receives connection lifecycle logs.
	Logger *slog.Logger
}

// NewFrontend serves r over the softdb wire protocol: clients connect with
// the ordinary client library (or softdb -connect) and cannot tell they
// are talking to a router except through SHOW SHARDS and the router lines
// in EXPLAIN.
func NewFrontend(r *Router, cfg FrontendConfig) *server.Server {
	return server.Over(r.Backend(), server.Config{Addr: cfg.Addr, IdleTimeout: cfg.IdleTimeout, Logger: cfg.Logger})
}

// Backend returns r as a wire server backend: each connection gets a
// routing session ("route-N"). The router counts its own sessions and
// requests, and has no admission gate.
func (r *Router) Backend() server.Backend { return routerBackend{r} }

type routerBackend struct{ r *Router }

func (b routerBackend) Open() (server.Session, string) {
	s := b.r.NewSession()
	return s, s.label
}

func (routerBackend) Gate() int { return 0 }

func (routerBackend) Metrics() *obs.Registry { return nil }

// DebugHandler serves the router's observability surface: /metrics in
// Prometheus format and /debug/shards as a JSON dump of the topology and
// the constraint registry.
func (r *Router) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.metrics.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/shards", func(w http.ResponseWriter, _ *http.Request) {
		type entryJSON struct {
			Shard      int    `json:"shard"`
			Table      string `json:"table"`
			Column     string `json:"column"`
			Kind       string `json:"kind"`
			Range      string `json:"range"`
			Constraint string `json:"constraint,omitempty"`
			Active     bool   `json:"active"`
		}
		out := struct {
			Addrs   []string    `json:"addrs"`
			Specs   []string    `json:"specs"`
			Retired int64       `json:"retired"`
			Entries []entryJSON `json:"entries"`
		}{Addrs: r.cfg.Addrs, Retired: r.reg.Retired()}
		for _, sp := range r.cfg.Specs {
			out.Specs = append(out.Specs, sp.String())
		}
		for _, e := range r.reg.Snapshot() {
			out.Entries = append(out.Entries, entryJSON{
				Shard: e.Shard, Table: e.Table, Column: e.Column,
				Kind: e.Kind.String(), Range: e.Iv.String(),
				Constraint: e.Constraint, Active: e.Active,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	return mux
}
