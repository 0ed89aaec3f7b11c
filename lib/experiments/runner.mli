(** Shared experiment pipeline with caching of linking, trace capture,
    profiling, compiler selection and simulation across figures.

    The architectural emulator runs once per (program, input set): its
    event stream is captured into a packed {!Dmp_exec.Trace} on first
    use and every later [profile] / [baseline] / [dmp] call replays the
    trace instead of re-emulating, with bit-identical results.

    A runner is safe for concurrent use from multiple domains: each
    benchmark's stages are guarded by a per-benchmark lock, so distinct
    benchmarks link / capture / profile / simulate in parallel while
    every cached stage is still computed exactly once. *)

open Dmp_ir
open Dmp_exec
open Dmp_profile
open Dmp_uarch
open Dmp_workload

type t

type sim_mode =
  | Exact  (** one full-length simulation per task (the default) *)
  | Segmented of int
      (** validation mode: run checkpointed, then re-simulate the [n]
          segments independently and {!Dmp_uarch.Stats.merge} their
          deltas — byte-identical to [Exact] by construction, with the
          segments fanned across the pool inside {!dmp_batch} *)
  | Sampled of { segments : int; warmup : int; window : int }
      (** interval sampling: per segment, restore the architectural
          state from a shared annotation-independent reference
          checkpoint, simulate [warmup] events to heat the cold
          pipeline plus a [window] measurement, and extrapolate to the
          segment length — an estimate, orders of magnitude cheaper on
          long traces *)

(** The program a stage runs on: the benchmark as registered, or its
    software-predicated form ({!Dmp_transform.Pipeline} under that pass
    configuration, run over the benchmark's exact profile of the
    stage's input set — see {!transform}). Both go through the same
    stages, with the program a component of every key; a transformed
    program's entries persist under the benchmark name
    ["<bench>+sw-<pass fingerprint>"]. *)
type program = Original | Transformed of Dmp_transform.Pass_config.t

val create :
  ?benchmarks:Spec.t list -> ?max_insts:int -> ?cache_dir:string ->
  ?jobs:int -> ?sim_mode:sim_mode -> ?mem_budget:int -> unit -> t
(** Defaults to the full 17-benchmark suite with uncapped simulations.
    [max_insts] caps trace capture, profiling and simulation alike (for
    quick runs and tests). When [cache_dir] is given, traces, profiles,
    baseline statistics, the statistics of every memoized DMP
    simulation ({!dmp_batch}, {!dmp_memo}) and every
    compiler selection ({!selections}) additionally persist across
    processes in a {!Disk_cache} rooted there, under a fingerprint that
    digests the code computing them;
    corrupt or stale entries are recomputed transparently. [jobs] sets
    the worker count of every parallel stage
    ({!prefetch} without an explicit override, {!dmp_batch},
    {!selections}); it
    defaults to [Dmp_exec.Pool.default_jobs ()] and [jobs = 1] runs
    every stage inline on the calling domain. The produced statistics
    and report output are byte-identical for every [jobs] value.
    [sim_mode] (default [Exact]) selects how {!dmp} / {!dmp_batch}
    simulate; {!baseline} always runs exactly.

    Every stage value (traces, decoded images, exact and sampled
    profiles, baseline statistics, selections, reference checkpoints)
    lives in one runner-wide in-memory LRU ({!Dmp_exec.Mem_cache})
    layered over the disk cache. [mem_budget] bounds it in bytes; no
    budget (the default) means nothing is ever evicted — the old
    unbounded memoisation. Under a budget, evicted stages are
    recomputed (or re-loaded from disk) transparently, so results are
    identical for every budget value.
    @raise Invalid_argument on a malformed [sim_mode]. *)

val mem_stats : t -> Dmp_exec.Mem_cache.stats
(** Hit/miss/eviction counters and live bytes of the runner-wide
    in-memory stage cache (the daemon's stats request reports them). *)

val names : t -> string list

val jobs : t -> int option
(** The worker count the runner was created with ([None] = the
    {!Dmp_exec.Pool.default_jobs} default) — exposed so figure
    harnesses can spread their own per-benchmark work over a pool of
    the same width. *)

val linked : t -> string -> Linked.t
val input : t -> string -> Input_gen.set -> int array

val trace : t -> string -> Input_gen.set -> Trace.t
(** The packed architectural trace, captured (or loaded from the disk
    cache) on first use and then shared by every replaying stage.
    Cached per (benchmark, input set). *)

val image : t -> string -> Input_gen.set -> Image.t
(** The trace pre-decoded into a flat {!Dmp_exec.Image} on first use;
    every simulating stage ([baseline], [dmp], [dmp_batch]) replays the
    image rather than the packed trace. Cached in-memory per
    (benchmark, input set) — never persisted, since decoding the cached
    trace is cheaper than reading the flat form back from disk. *)

val profile : ?program:program -> t -> string -> Input_gen.set -> Profile.t
(** The edge/misprediction profile of [program] (default [Original]),
    collected over its trace. A transformed program's own profile is
    what a second profile-guided selection runs on
    ({!Transformed_profile}). Cached per (program, input set). *)

val sampled_profile :
  t -> string -> Input_gen.set -> Dmp_sampling.Sampler.config -> Profile.t
(** A profile collected by sparse hardware-style sampling
    ({!Dmp_sampling.Sampler}) over the benchmark's packed trace and
    reconstructed to a dense profile ({!Dmp_sampling.Reconstruct}).
    Cached in-memory per (benchmark, input set, sampling config) and,
    when the runner has a disk cache, persisted with the sampling
    parameters folded into the entry kind. Stage labels:
    ["sprofile (collect)"] / ["sprofile (disk cache)"]. *)

val baseline :
  ?program:program -> ?set:Input_gen.set -> t -> string -> Stats.t
(** Baseline-machine simulation of [program] (default [Original]); for
    a transformed program, the pure software-predication data point.
    Cached per (program, input set). *)

val transform :
  ?tconfig:Dmp_transform.Pass_config.t -> t -> string -> Input_gen.set ->
  Dmp_transform.Pipeline.result
(** The software-predication pipeline ({!Dmp_transform.Pipeline}) run
    over the benchmark's linked program under its exact profile. Pure
    in (program, profile, config), so cached per
    (benchmark, input set, pass-config fingerprint); stage label
    ["transform (run)"]. Its linked program is [Transformed tconfig]'s
    in every other stage. *)

(** {2 Compiler selection}

    Every selection the figures, the ablations and the daemon make is
    one keyed stage: memoized in the stage LRU, persisted in the disk
    cache, deduplicated within a batch and spread over the pool. *)

(** Where a selection's profile comes from. *)
type profile_source =
  | Exact_profile  (** {!profile} of the request's input set *)
  | Sampled_profile of Dmp_sampling.Sampler.config
      (** {!sampled_profile} under that sampling configuration *)
  | Transformed_profile of Dmp_transform.Pass_config.t
      (** {!profile} of [Transformed] under that pass configuration:
          the software-predicated program, selected from its own
          profile *)

(** What a selection runs. *)
type selector =
  | Compiler of Dmp_core.Select.config
      (** {!Dmp_core.Select.run} under the full configuration: mode,
          techniques and every {!Dmp_core.Params} field *)
  | Simple of Dmp_core.Simple_select.algo
      (** a simple selector of Figure 8, with its seed or threshold *)

type request = private {
  bench : string;
  set : Input_gen.set;
  source : profile_source;
  selector : selector;
  two_d : int option;
      (** the Section 8.3 pre-filter: drop branches a 2D profile of
          that many instructions ({!Dmp_profile.Two_d.collect}) finds
          easy in every phase *)
}
(** One selection, named by everything it reads. *)

val request :
  ?set:Input_gen.set -> ?source:profile_source -> ?two_d:int -> string ->
  selector -> request
(** [set] defaults to [Reduced] and [source] to [Exact_profile].
    @raise Invalid_argument when [two_d] is given with a [Simple]
    selector, which cannot apply it. *)

val variant : Variants.t -> selector
(** The selector a named variant runs ({!Variants.to_config} for the
    heuristic and cost-model stacks). *)

val selections : t -> request list -> Dmp_core.Annotation.t list
(** The annotation of every request, in request order. The batch groups
    its requests by key — benchmark, input set, profile source, the
    selector in full and the 2D pre-filter — so equal requests from
    different figures share one entry. A group the runner-wide memo
    holds (from an earlier batch) is answered from it; failing that, a
    runner with a disk cache answers it from the entry
    ["<bench>-<set>.sel-<md5 of key>"] an earlier process stored. The
    remaining groups run once each: their profile is fetched through
    its own stage under the benchmark lock, the selection runs outside
    it, and the worker that ran it persists the result. Several pending
    groups are spread over a {!Dmp_exec.Pool} of the runner's [jobs]
    workers; a lone one runs inline. Delivered annotations are shared,
    not copied: callers must not mutate them.

    Rows: ["select (run)"] per selection run, ["select (disk cache)"]
    per disk-cache hit (hits only), and the zero-time
    ["select (dedup hit)"] per other request, so the three grow by
    exactly the number of requests. A 2D pre-filter's profile is
    collected by the selection that needs it, under
    ["2d-profile (collect)"].
    @raise Invalid_argument on an unknown benchmark. *)

val selection : t -> string -> Input_gen.set -> algo:string -> Dmp_core.Annotation.t
(** [selections] of one request: the named selection algorithm (a
    {!Variants} name, e.g. ["all-best-heur"]) on the benchmark's exact
    profile. The serving daemon's annotate / run requests resolve
    selections through this instead of re-running the compiler per
    request.
    @raise Invalid_argument on an unknown algorithm name. *)

val dmp :
  ?program:program -> ?set:Input_gen.set -> ?config:Config.t ->
  ?mode:sim_mode -> t -> string -> Dmp_core.Annotation.t -> Stats.t
(** Uncached: one DMP simulation of [program] (default [Original])
    under the given annotation, which names branches of that program's
    linked form. [mode]
    overrides the runner's {!sim_mode} for this call (the fidelity
    report uses it to compare the modes side by side); segment work
    runs inline on the calling domain here. *)

val dmp_batch :
  ?program:program -> ?set:Input_gen.set -> ?config:Config.t ->
  ?mode:sim_mode -> t -> (string * Dmp_core.Annotation.t) list ->
  Stats.t list
(** [dmp] over every (benchmark, annotation) task, with annotation
    dedup; [program], like [set], applies to the whole batch. Tasks
    whose annotations, compiled against the simulated program, share a
    behavioural fingerprint ({!Dmp_core.Annotation.Compiled}) under one
    (program, set, config, mode) form one group; each group is
    simulated once, exactly as {!dmp} would, and its statistics go as
    copies to every task slot of the group. A group already simulated
    by an earlier batch (or {!dmp_memo}) is answered from the
    runner-wide memo without simulating; failing that, a runner with a
    disk cache answers it from the group's persisted statistics, and
    each simulation it does run is persisted by the worker that ran
    it. A batch adds one ["dmp (simulate)"] or ["dmp (disk cache)"]
    call per group the memo did not hold and one ["dmp (dedup hit)"]
    call per other task, so the three rows grow by exactly the number
    of tasks submitted.

    The distinct simulations are spread across a {!Dmp_exec.Pool} of
    the runner's [jobs] workers. Results match the order of the tasks,
    and each simulation is deterministic, so the batch returns exactly
    what the sequential [List.map] over [dmp] would — the figure
    harnesses use it for their per-variant sims. Under [Segmented] /
    [Sampled] each simulation additionally fans its per-segment runs
    onto the same pool with a nested (re-entrant) [Pool.map]. The
    first exception raised by any task is re-raised after the batch
    settles. *)

val dmp_memo :
  ?program:program -> ?set:Input_gen.set -> ?config:Config.t ->
  ?mode:sim_mode -> t -> string -> Dmp_core.Annotation.t -> Stats.t
(** {!dmp_batch} of one task, run inline on the calling domain, for
    callers that arrive one request at a time (the serving daemon): a
    repeat of an already-simulated
    (program, set, config, mode, fingerprint) returns a copy of the
    memoized statistics without simulating — including a simulation
    persisted by an earlier process in the same disk cache. *)

val annotation_fingerprint : t -> string -> Dmp_core.Annotation.t -> string
(** The behavioural fingerprint
    ({!Dmp_core.Annotation.Compiled.fingerprint}) of [annotation]
    compiled against the named benchmark's linked program — the
    annotation component of the dedup memo key, exposed so the serving
    daemon can audit its response cache against it. *)

val prefetch :
  ?profile_sets:Input_gen.set list ->
  ?baseline_sets:Input_gen.set list -> ?jobs:int -> t -> unit
(** Warm link, profile and baseline for every benchmark, spreading the
    benchmarks over a {!Dmp_exec.Pool} of [jobs] workers (default:
    [Pool.default_jobs ()], i.e. the [DMP_JOBS] environment variable or
    the recommended domain count). [profile_sets] and [baseline_sets]
    both default to [[Input_gen.Reduced]]. The first exception raised
    by any stage is re-raised after the batch settles. *)

val speedup_pct : base:Stats.t -> Stats.t -> float
val amean : float list -> float

(** {2 Stage timing}

    Every stage records its wall-clock time under a stage label:
    ["link"], ["trace (capture)"] / ["trace (disk cache)"],
    ["profile (collect)"] / ["profile (disk cache)"],
    ["sprofile (collect)"] / ["sprofile (disk cache)"],
    ["2d-profile (collect)"],
    ["baseline (simulate)"] / ["baseline (disk cache)"],
    ["select (run)"] / ["select (disk cache)"],
    ["dmp (simulate)"] / ["dmp (disk cache)"], ["transform (run)"]
    and — under a segment-splitting {!sim_mode} —
    ["ckpt (capture)"] for checkpoint capture runs (shared reference
    captures in [Sampled] mode, per-task captures in [Segmented]
    mode). The rows cover both programs: a transformed program's
    stages count under the same labels as the original's. A warm
    persistent cache is visible as the
    capture/collect/decode/select/simulate rows dropping to zero calls.

    Every ["… (disk cache)"] row counts hits only: each call is one
    value read back from disk in place of its computation, and a miss
    is not counted. Each compute row times its own work only, never
    the stages that fetch its inputs.
    ["dmp (dedup hit)"] and ["select (dedup hit)"] are accounting rows
    (calls counted, no wall time attributed): the requests answered by
    another request's simulation, selection or disk entry.
    ["image (decode)"] counts actual trace decodes — at most one per
    (program, input set, instruction cap) per process, across every
    runner and simulation mode, thanks to a process-global weak memo of
    decoded images. *)

val timings : t -> (string * int * float) list
(** [(stage, calls, total seconds)], sorted by stage label. *)

val timings_json : t -> string
(** Render {!timings} as a JSON array of
    [{"stage": ..., "calls": ..., "seconds": ...}] rows. *)

val timing_summary : t -> string
(** Render {!timings} as an aligned table, one stage per line. *)
