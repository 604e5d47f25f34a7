// Package fleet is the sharded serving tier above internal/serve: a
// front-end router that consistent-hashes requests by model key across
// N backend serve processes, per-backend health probes with passive
// failure detection, bounded retry-with-backoff failover along the
// hash ring, a multi-model shard that pages Programs in and out under
// the registry's memory budget (warm-starting from peers' gob
// snapshots), and a closed-loop load generator that reports tail
// latency per shard.
//
// Dataflow:
//
//	client ──> Router ──(ring order, skip unhealthy, retry 5xx)──> Shard
//	                                                                 │
//	                                                 serve.Registry (LRU budget)
//	                                                                 │
//	                                                 serve.Server (micro-batch)
//
// The router never interprets payloads: /detect bodies pass through
// byte-for-byte, so fleet-wide results are bitwise identical
// to a single shard's.
package fleet

import (
	"fmt"
	"net/url"

	"rtoss/internal/engine"
	"rtoss/internal/serve"
)

// KeyFromQuery resolves the model key a request addresses. A ?key=
// parameter ("Arch/variant/mode") wins; otherwise ?model=, ?variant=
// and ?engine= (alias ?mode=) individually override the default key.
// Requests with none of these land on def — the single-model fleet
// case needs no routing parameters at all.
func KeyFromQuery(q url.Values, def serve.Key) (serve.Key, error) {
	if s := q.Get("key"); s != "" {
		return serve.ParseKey(s)
	}
	k := def
	if v := q.Get("model"); v != "" {
		k.Arch = v
	}
	if v := q.Get("variant"); v != "" {
		if _, err := serve.ParseVariant(v); err != nil {
			return serve.Key{}, err
		}
		k.Variant = v
	}
	v := q.Get("engine")
	if v == "" {
		v = q.Get("mode")
	}
	if v != "" {
		mode, err := engine.ParseMode(v)
		if err != nil {
			return serve.Key{}, fmt.Errorf("fleet: query engine=%q: %w", v, err)
		}
		k.Mode = mode
	}
	return k, nil
}
