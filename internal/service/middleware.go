package service

import (
	"context"
	"log/slog"
	"net/http"
	"time"
)

// reqInfo is the per-request annotation handlers fill in for the
// middleware's request log: the run id a submit or lookup resolved to,
// and whether the answer came from the finished-work cache.
type reqInfo struct {
	runID  string
	cached bool
}

type reqInfoKey struct{}

// annotateRun attaches the run id (and cache outcome) of the run a
// handler resolved to the request's log record. run may be any kind —
// the id is extracted through the runcore RunID surface.
func annotateRun(r *http.Request, run any, cached bool) {
	info, _ := r.Context().Value(reqInfoKey{}).(*reqInfo)
	if info == nil {
		return
	}
	if ider, ok := run.(interface{ RunID() string }); ok {
		info.runID = ider.RunID()
	}
	info.cached = cached
}

// statusWriter captures the response status code for metrics and logs.
// It deliberately does NOT implement http.Flusher — flushWriter adds
// that only when the underlying writer has it, so the SSE handler's
// Flusher detection keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// flushWriter is statusWriter plus pass-through Flush, used when the
// underlying ResponseWriter is a Flusher.
type flushWriter struct {
	*statusWriter
}

func (w flushWriter) Flush() {
	w.statusWriter.ResponseWriter.(http.Flusher).Flush()
}

// statusClasses are the class labels of status codes 100–599.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// statusClass folds a status code into its class label ("2xx"…"5xx").
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return statusClasses[code/100-1]
}

// instrumentHTTP wraps the routed mux with the front-door telemetry:
// per-route request counts and latency histograms, the in-flight gauge,
// and (with a logger configured) one structured log line per request
// carrying the run id the handler resolved.
//
// The route label is the mux's registered pattern (Go 1.22 method
// routing — "POST /v1/jobs", "GET /v1/jobs/{id}"), looked up WITHOUT
// serving, so the label space stays bounded by the route table no
// matter what paths clients probe; unrouted requests share one label.
func (m *Manager) instrumentHTTP(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, pattern := mux.Handler(r)
		route := pattern
		if route == "" {
			route = "unrouted"
		}

		info := &reqInfo{}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info))

		sw := &statusWriter{ResponseWriter: w}
		var wrapped http.ResponseWriter = sw
		if _, ok := w.(http.Flusher); ok {
			wrapped = flushWriter{sw}
		}

		m.metrics.httpInFlight.Inc()
		start := time.Now()
		mux.ServeHTTP(wrapped, r)
		elapsed := time.Since(start)
		m.metrics.httpInFlight.Dec()

		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		m.metrics.httpRequests.With(route, r.Method, statusClass(code)).Inc()
		m.metrics.httpDuration.With(route).Observe(elapsed.Seconds())

		if m.logger != nil {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", code),
				slog.Duration("duration", elapsed),
			}
			if info.runID != "" {
				attrs = append(attrs, slog.String("run", info.runID), slog.Bool("cached", info.cached))
			}
			m.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
}
