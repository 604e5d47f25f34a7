package main

// Fleet subcommands: `rtoss route` fronts N serve processes with the
// consistent-hash failover router, `rtoss loadtest` drives a router
// (or a single shard) with closed-loop /detect traffic and reports
// tail latency, and `rtoss chaos` runs the seeded fault-injection
// harness against an in-process fleet and gates on the robustness
// acceptance invariants.

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"rtoss"
	"rtoss/internal/faultinject"
	"rtoss/internal/fleet"
	"rtoss/internal/serve"
)

func routeCmd(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8090", "listen address")
	backends := fs.String("backends", "", "comma-separated shard base URLs (required)")
	modelName := fs.String("model", "yolov5s", "default model for requests without routing params")
	variant := fs.String("variant", "rtoss-3ep", "default pruning variant")
	engineMode := fs.String("engine", "sparse", "default kernel dispatch: dense|sparse|auto")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
	attempts := fs.Int("attempts", 0, "max replica attempts per request (0 = one per backend)")
	backoff := fs.Duration("backoff", 10*time.Millisecond, "initial failover backoff (doubles per retry)")
	timeout := fs.Duration("timeout", serve.DefaultClientTimeout, "per-attempt upstream timeout")
	probeEvery := fs.Duration("probe-interval", 250*time.Millisecond, "health probe interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls := splitBackends(*backends)
	if len(urls) == 0 {
		return fmt.Errorf("route: -backends needs at least one shard URL")
	}
	key, err := fleetKey(*modelName, *variant, *engineMode)
	if err != nil {
		return err
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Backends:       urls,
		Default:        key,
		VNodes:         *vnodes,
		Attempts:       *attempts,
		Backoff:        *backoff,
		AttemptTimeout: *timeout,
		Probe:          fleet.ProberConfig{Interval: *probeEvery},
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	fmt.Printf("routing on http://%s for %d backends (default key %v)\n", *addr, len(urls), key)
	for _, u := range urls {
		fmt.Printf("  shard %s\n", u)
	}
	fmt.Printf("  POST /detect  consistent-hash by model key, failover on 5xx\n")
	fmt.Printf("  GET  /stats, /healthz, /program\n")
	return serveGracefully(*addr, rt.Handler(), rt.Close)
}

func loadtestCmd(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	urlFlag := fs.String("url", "http://localhost:8090", "router or shard base URL")
	duration := fs.Duration("duration", 5*time.Second, "firing window")
	conc := fs.Int("concurrency", 4, "closed-loop workers")
	keysFlag := fs.String("keys", "", "comma-separated model keys (Arch/variant/mode) to mix; empty = target's default")
	scenes := fs.Int("scenes", 4, "distinct pre-rendered images")
	sceneW := fs.Int("scene-w", 320, "rendered image width")
	sceneH := fs.Int("scene-h", 192, "rendered image height")
	seed := fs.Uint64("seed", 1, "scene rendering seed")
	score := fs.Float64("score", 0, "confidence threshold override (0 = server default)")
	iou := fs.Float64("iou", 0, "NMS IoU threshold override (0 = server default)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	jsonPath := fs.String("json", "", "also write the report to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var keys []serve.Key
	for _, s := range splitBackends(*keysFlag) {
		k, err := serve.ParseKey(s)
		if err != nil {
			return err
		}
		keys = append(keys, k)
	}
	rep, err := fleet.RunLoad(fleet.LoadConfig{
		URL:      *urlFlag,
		Duration: *duration, Concurrency: *conc,
		Keys:   keys,
		Scenes: *scenes, SceneW: *sceneW, SceneH: *sceneH, Seed: *seed,
		Score: *score, IoU: *iou,
		Timeout: *timeout,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if *jsonPath != "" {
		if err := rep.WriteJSON(*jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}

// chaosCmd runs the seeded fault-injection harness: an in-process
// 3-shard fleet behind the failover router, every injection point
// armed from one schedule, and the acceptance invariants checked at
// the end. A run with violations exits nonzero so CI can gate on it.
func chaosCmd(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "seed for every random draw (injection, jitter, scenes)")
	schedule := fs.String("schedule", "mixed", "fault schedule: preset (none|panics|network|ingest|registry|mixed) or point:p=..,max=..,after=..,delay=..;... spec")
	shards := fs.Int("shards", 3, "in-process shard count")
	modelName := fs.String("model", "tiny", "model to serve: tiny (built-in, fast) | yolov5s | retinanet")
	variant := fs.String("variant", "dense", "pruning variant for zoo models")
	engineMode := fs.String("engine", "sparse", "kernel dispatch for zoo models")
	res := fs.Int("res", 0, "input resolution (0 = 32 for tiny, 64 for zoo models)")
	duration := fs.Duration("duration", 3*time.Second, "load-phase firing window")
	conc := fs.Int("concurrency", 4, "load-phase workers")
	scenes := fs.Int("scenes", 4, "distinct pre-rendered images")
	sceneW := fs.Int("scene-w", 96, "rendered image width")
	sceneH := fs.Int("scene-h", 64, "rendered image height")
	max5xx := fs.Float64("max-5xx-rate", 0.05, "client-visible 5xx rate bound for the load phase")
	watchdog := fs.Duration("watchdog", 2*time.Second, "per-shard stuck-batch watchdog allowance")
	streamFrames := fs.Int("stream-frames", 16, "frames per stream-phase session (negative skips the phase)")
	jsonPath := fs.String("json", "", "also write the report to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	plan, err := faultinject.ParsePlan(*schedule)
	if err != nil {
		return err
	}
	cfg := fleet.ChaosConfig{
		Seed: *seed, Plan: plan, Shards: *shards, Res: *res,
		Duration: *duration, Concurrency: *conc,
		Scenes: *scenes, SceneW: *sceneW, SceneH: *sceneH,
		Max5xxRate: *max5xx, Watchdog: *watchdog,
		StreamFrames: *streamFrames,
	}
	if *modelName != "tiny" {
		if cfg.Key, err = fleetKey(*modelName, *variant, *engineMode); err != nil {
			return err
		}
	}
	rep, err := fleet.RunChaos(cfg)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if *jsonPath != "" {
		if err := rep.WriteJSON(*jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if !rep.OK() {
		return fmt.Errorf("chaos: %d acceptance invariant(s) violated", len(rep.Violations))
	}
	return nil
}

func splitBackends(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fleetKey(model, variant, engineMode string) (serve.Key, error) {
	arch, err := zooName(model)
	if err != nil {
		return serve.Key{}, err
	}
	mode, err := rtoss.ParseEngineMode(engineMode)
	if err != nil {
		return serve.Key{}, err
	}
	if _, err := serve.ParseVariant(variant); err != nil {
		return serve.Key{}, err
	}
	return serve.Key{Arch: arch, Variant: variant, Mode: mode}, nil
}
