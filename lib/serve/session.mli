(** The daemon's session registry: a warm, LRU-bounded cache of parsed
    netlists shared read-only by every worker.

    This is the point of a persistent server — re-requesting the same
    circuit skips the parse {e and} the lazy topology computation:
    every netlist is {!Sttc_netlist.Netlist.warm}ed before it enters
    the cache (PR 3's read-only sharing discipline), so worker domains
    can use a cached netlist concurrently without racing its lazy
    caches.

    Keys are content-addressed — the benchmark name for {!Request.Named}
    sources, a digest of the .bench text (plus design name) for
    {!Request.Inline} ones — so two clients shipping the same netlist
    text share one entry.

    Each entry also memoizes the PPA baseline of its netlist (timing,
    activity, power and area, computed on first use by a protect
    request), so repeated requests on a warm entry skip the base
    [Sta.analyze] and [Activity.analyze] entirely.

    Metrics: [serve.cache_hits], [serve.cache_misses],
    [serve.cache_evictions], [serve.sta_cache_hits],
    [serve.sta_cache_misses]. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty registry holding at most [capacity] netlists (default 32;
    least-recently-used entries are evicted past that).  [capacity <= 0]
    disables caching entirely — every request parses from scratch, the
    cold baseline the serve benchmark compares against. *)

val netlist : t -> Request.source -> (Sttc_netlist.Netlist.t, string) result
(** Resolve a source to a parsed, warmed netlist — from cache when
    possible.  Thread-safe; parsing happens outside the registry lock,
    so a slow parse never blocks cache hits.  Errors are unknown
    benchmark names or .bench parse failures. *)

val baseline :
  t -> Request.source -> Sttc_netlist.Netlist.t -> Sttc_core.Ppa.baseline
(** The PPA baseline (under {!Sttc_tech.Library.cmos90}, the protect
    flow's default library) of a netlist previously resolved with
    {!netlist}, memoized on its cache entry.  The memo is used only when
    the entry still holds this exact netlist value, so a stale or evicted
    entry can never serve a wrong analysis — it just recomputes.
    Thread-safe; the analysis runs outside the lock.  Counters (named
    for the base timing analysis the baseline holds):
    [serve.sta_cache_hits] / [serve.sta_cache_misses]. *)
