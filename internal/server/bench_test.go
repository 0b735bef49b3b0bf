package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// benchRequest drives one POST /analyze through the full handler stack.
func benchRequest(b *testing.B, s *Server, body []byte) {
	req := httptest.NewRequest("POST", "/analyze", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkServerCacheHit measures a fully warm request: the program is
// already solved and its /analyze body already rendered, so the cost is
// decoding + hashing + cache lookup + writing the stored bytes.
func BenchmarkServerCacheHit(b *testing.B) {
	s := New(Config{})
	defer closeQuiet(b, s)
	body, _ := json.Marshal(AnalyzeRequest{Source: mediumIR(7), Lang: "ir"})
	benchRequest(b, s, body) // prime the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, s, body)
	}
}

// BenchmarkServerCacheMiss measures the same request with the cache
// purged each iteration, so every request pays for a full solve. The
// gap between this and BenchmarkServerCacheHit is what the
// content-addressed cache buys.
func BenchmarkServerCacheMiss(b *testing.B) {
	s := New(Config{})
	defer closeQuiet(b, s)
	body, _ := json.Marshal(AnalyzeRequest{Source: mediumIR(7), Lang: "ir"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.purge()
		benchRequest(b, s, body)
	}
}

func closeQuiet(b *testing.B, s *Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		b.Errorf("Close: %v", err)
	}
}
