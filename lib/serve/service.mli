(** The daemon's request core, independent of any transport: the socket
    server, the tests and the bench load generator all call
    {!respond}.

    Every annotate / profile / run request is keyed by a fingerprint
    ["kind/bench/set[/algo]"] and served through three layers: a
    byte-budgeted response LRU of rendered report strings; an
    in-flight table that coalesces identical concurrent requests onto
    one computation (exactly one pipeline execution per key, checked
    deterministically by the tests via [compute_hook]); and an
    admission semaphore bounding concurrent pipeline executions to the
    worker count. Stage values (traces, images, profiles, baselines,
    selections) live in the underlying {!Dmp_experiments.Runner}'s own
    in-memory LRU over the disk cache.

    Response bodies are produced by {!Render}, so they are
    byte-identical to the offline CLI's stdout for the same request. *)

type t

val create :
  ?benchmarks:Dmp_workload.Spec.t list ->
  ?max_insts:int ->
  ?cache_dir:string ->
  ?jobs:int ->
  ?mem_budget:int ->
  ?response_budget:int ->
  ?compute_hook:(string -> unit) ->
  unit ->
  t
(** [jobs] (default {!Dmp_exec.Pool.default_jobs}, i.e. clamped to the
    recommended domain count) sizes both the runner's parallel stages
    and the admission semaphore. [mem_budget] bounds the runner's
    stage LRU, [response_budget] the response LRU (default 64 MiB).
    [compute_hook] fires once per actual (non-coalesced, non-cached)
    computation with the request fingerprint — test instrumentation.
    @raise Invalid_argument when [jobs < 1]. *)

val respond : t -> Protocol.request -> (string, string) result * int
(** Serve one request: the rendered body or an error message, plus the
    observed latency in nanoseconds (already recorded in the per-kind
    histogram). Never raises: computation exceptions become [Error]
    responses. Safe to call from any number of threads. *)

val stats_text : t -> string
(** The stats report: request / error / coalescing counters, both LRU
    caches' hit/miss/eviction lines, per-kind latency percentiles, and
    the runner's stage-call table (whose call counts are how CI proves
    coalescing: N identical requests leave exactly one
    ["dmp (simulate)"] call). *)

val runner : t -> Dmp_experiments.Runner.t
val jobs : t -> int
val coalesced : t -> int
(** How many requests joined an in-flight identical computation. *)

val fingerprint_audit : t -> int * int
(** [(fingerprints, aliased_runs)]: distinct
    (benchmark, set, selection fingerprint) triples observed across
    computed run requests, and how many run computations carried a
    fingerprint first computed under a {e different} algorithm — runs
    the response LRU keys apart (its key includes the algorithm name)
    but whose simulation {!Dmp_experiments.Runner.dmp_memo} answered
    from the fingerprint memo without simulating. Both also appear in
    {!stats_text} as the ["selections:"] line. *)

val response_stats : t -> Dmp_exec.Mem_cache.stats
val histogram : t -> Protocol.request -> Histogram.t
(** The latency histogram of the request's kind. *)
