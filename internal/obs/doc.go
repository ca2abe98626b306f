// Package obs is the repository's unified observability layer: a
// zero-dependency metrics registry and a span-based event tracer shared by
// every simulated subsystem (fs → ftl → ssd → interconnect → nvm).
//
// The paper's entire argument rests on measurement visibility — its probes
// decompose device time into channel-bus, die and contention components
// (Figures 8–10) to show where simulated time goes as a request descends the
// stack. This package makes that decomposition a first-class, cross-layer
// facility instead of ad-hoc per-package counters.
//
// # Metrics registry
//
// A Registry holds named Counters (monotonic int64), Gauges (float64) and
// Histograms (fixed power-of-two picosecond buckets over sim.Time values,
// with exact Sum/Min/Max and conservative p50/p95/p99). Snapshots are
// deterministic — entries are sorted by name — and export as JSON or CSV,
// so two runs with the same inputs emit byte-identical metrics files.
//
// # Event tracer
//
// A Tracer records spans of simulated time: (layer, track, name, start, end,
// attrs). Layers map to Chrome trace_event "processes" and tracks to
// "threads" (one per channel, die, queue, link...), so WriteChromeJSON
// produces a file loadable in chrome://tracing or https://ui.perfetto.dev
// that shows per-channel bus transfers, per-die cell activations, SSD queue
// residency and host-link DMA on one timeline. The tracer is bounded
// (DefaultTraceLimit); events beyond the limit are counted in Dropped rather
// than silently discarded.
//
// Layers whose work is not scheduled in simulated time (the file-system
// translation layers, which run ahead of the replay) lay their translate
// spans on a synthetic one-request-per-microsecond timeline; those tracks
// visualize request fan-out, not timing, and are documented as such at the
// emitting sites.
//
// # Probes
//
// A *Collector is the probe every instrumented layer holds and calls: it
// bundles a Registry and a Tracer, and either may be nil to collect only the
// other. A nil *Collector means observability off. Its methods return at
// once and allocate nothing, so hot paths (nvm.Device.Submit,
// ssd.SSD.Submit) stay unperturbed; internal/ssd guards this with a
// testing.AllocsPerRun test. Each layer takes its probe through SetProbe on
// the interface it is already called through (fs.FileSystem,
// ssd.Translator, nvm.Link), and ssd.Config.Probe fans one collector out to
// the whole drive. Sites that count once per page hold the handles
// Collector.Counter and Collector.Gauge return instead of naming the metric
// on every call; a nil collector returns nil handles, on which Add, Inc and
// Set do nothing.
//
// # Naming conventions
//
// Metric names are dot-separated and layer-prefixed: "nvm.bytes_read",
// "ssd.request.latency", "ftl.gc.runs", "interconnect.bytes". Histograms of simulated durations use "_ps"
// suffixed fields in exports; gauges that mirror derived statistics
// (utilizations, bandwidth) carry their unit in the name.
package obs
