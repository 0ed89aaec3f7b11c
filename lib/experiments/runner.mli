(** Shared experiment pipeline with caching of linking, trace capture,
    profiling and baseline simulation across figures.

    The architectural emulator runs once per (benchmark, input set):
    its event stream is captured into a packed {!Dmp_exec.Trace} on
    first use and every later [profile] / [baseline] / [dmp] call
    replays the trace instead of re-emulating, with bit-identical
    results.

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

val create :
  ?benchmarks:Spec.t list -> ?max_insts:int -> ?cache_dir:string ->
  ?jobs:int -> ?sim_mode:sim_mode -> ?mem_budget:int -> unit -> t
(** Defaults to the full 17-benchmark suite with uncapped simulations.
    [max_insts] caps trace capture, profiling and simulation alike (for
    quick runs and tests). When [cache_dir] is given, traces, profiles
    and baseline statistics additionally persist across processes in a
    {!Disk_cache} rooted there; corrupt or stale entries are recomputed
    transparently. [jobs] sets the worker count of every parallel stage
    ({!prefetch} without an explicit override, {!dmp_batch}); it
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

val profile : t -> string -> Input_gen.set -> Profile.t
(** Cached per (benchmark, input set). *)

val sampled_profile :
  t -> string -> Input_gen.set -> Dmp_sampling.Sampler.config -> Profile.t
(** A profile collected by sparse hardware-style sampling
    ({!Dmp_sampling.Sampler}) over the benchmark's packed trace and
    reconstructed to a dense profile ({!Dmp_sampling.Reconstruct}).
    Cached in-memory per (benchmark, input set, sampling config) and,
    when the runner has a disk cache, persisted with the sampling
    parameters folded into the entry kind. Stage labels:
    ["sprofile (collect)"] / ["sprofile (disk cache)"]. *)

val baseline : ?set:Input_gen.set -> t -> string -> Stats.t
(** Cached per (benchmark, input set). *)

val transform :
  ?tconfig:Dmp_transform.Pass_config.t -> t -> string -> Input_gen.set ->
  Dmp_transform.Pipeline.result
(** The software-predication pipeline ({!Dmp_transform.Pipeline}) run
    over the benchmark's linked program under its exact profile. Pure
    in (program, profile, config), so cached per
    (benchmark, input set, pass-config fingerprint); stage label
    ["transform (run)"]. *)

val transformed_profile :
  ?tconfig:Dmp_transform.Pass_config.t -> t -> string -> Input_gen.set ->
  Profile.t
(** The transformed program's own edge/misprediction profile, collected
    over its captured trace (stage ["tprofile (collect)"]) — what a
    second profile-guided selection runs on for the combined
    software + DMP variant. The trace capture (["ttrace (capture)"])
    and this profile both persist in the disk cache under a
    pass-fingerprint-qualified benchmark name. *)

val transformed_baseline :
  ?tconfig:Dmp_transform.Pass_config.t -> ?set:Input_gen.set -> t ->
  string -> Stats.t
(** Baseline-machine simulation of the transformed program — the pure
    software-predication data point. Cached (and disk-persisted) per
    (benchmark, input set, pass-config fingerprint); stage
    ["tbaseline (simulate)"]. *)

val transformed_dmp :
  ?tconfig:Dmp_transform.Pass_config.t -> ?set:Input_gen.set ->
  ?config:Config.t -> t -> string -> Dmp_core.Annotation.t -> Stats.t
(** One DMP simulation of the transformed program under [annotation]
    (selected from {!transformed_profile}) — the combined
    software + hardware variant. Memoized like {!dmp_memo} with the
    pass-config fingerprint a key component; stage
    ["tdmp (simulate)"]. *)

val selection : t -> string -> Input_gen.set -> algo:string -> Dmp_core.Annotation.t
(** The annotation the named selection algorithm (a {!Variants} name,
    e.g. ["all-best-heur"]) derives from the benchmark's profile.
    Cached per (benchmark, input set, algorithm) in the in-memory LRU;
    stage label ["select (run)"]. The serving daemon's annotate / run
    requests resolve selections through this instead of re-running the
    compiler per request.
    @raise Invalid_argument on an unknown algorithm name. *)

val dmp :
  ?set:Input_gen.set -> ?config:Config.t -> ?mode:sim_mode -> t -> string ->
  Dmp_core.Annotation.t -> Stats.t
(** Uncached: one DMP simulation under the given annotation. [mode]
    overrides the runner's {!sim_mode} for this call (the fidelity
    report uses it to compare the modes side by side); segment work
    runs inline on the calling domain here. *)

val dmp_batch :
  ?set:Input_gen.set -> ?config:Config.t -> ?mode:sim_mode -> t ->
  (string * Dmp_core.Annotation.t) list -> Stats.t list
(** [dmp] over every (benchmark, annotation) task, with annotation
    dedup. Tasks whose compiled annotations share a behavioural
    fingerprint ({!Dmp_core.Annotation.Compiled}) under one
    (benchmark, set, config, mode) form one group; each group is
    simulated once, exactly as {!dmp} would, and its statistics go as
    copies to every task slot of the group. A group already simulated
    by an earlier batch (or {!dmp_memo}) is answered from the
    runner-wide memo without simulating. A batch adds one
    ["dmp (simulate)"] call per simulation it runs and one
    ["dmp (dedup hit)"] call per other task, so the two rows grow by
    exactly the number of tasks submitted.

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
  ?set:Input_gen.set -> ?config:Config.t -> ?mode:sim_mode -> t -> string ->
  Dmp_core.Annotation.t -> Stats.t
(** {!dmp} through the same behavioural-fingerprint memo {!dmp_batch}
    uses, for callers that arrive one request at a time (the serving
    daemon): a repeat of an already-simulated
    (benchmark, set, config, mode, fingerprint) returns a copy of the
    memoized statistics without simulating. *)

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
    ["baseline (simulate)"] / ["baseline (disk cache)"],
    ["dmp (simulate)"] and — under a segment-splitting {!sim_mode} —
    ["ckpt (capture)"] for checkpoint capture runs (shared reference
    captures in [Sampled] mode, per-task captures in [Segmented]
    mode). A warm persistent cache is visible as the
    capture/collect/simulate rows dropping to zero calls.

    ["dmp (dedup hit)"] is an accounting row (calls counted, no wall
    time attributed): the {!dmp_batch} / {!dmp_memo} requests answered
    without a simulation. ["image (decode)"] counts
    actual trace decodes — at most one per (benchmark, input set,
    instruction cap) per process, across every runner and simulation
    mode, thanks to a process-global weak memo of decoded images. *)

val timings : t -> (string * int * float) list
(** [(stage, calls, total seconds)], sorted by stage label. *)

val timings_json : t -> string
(** Render {!timings} as a JSON array of
    [{"stage": ..., "calls": ..., "seconds": ...}] rows. *)

val timing_summary : t -> string
(** Render {!timings} as an aligned table, one stage per line. *)
