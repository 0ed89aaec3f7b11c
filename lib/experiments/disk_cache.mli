(** Persistent on-disk cache for the expensive pipeline stages.

    Traces, profiles, baseline statistics, DMP statistics and compiler
    selections are stored under
    [dir/<fingerprint>/<benchmark>-<input set>.<kind>], where the
    fingerprint digests the code that computes them
    ({!Dmp_code_digest.value}, a build-time digest of the sources of
    every library in [dmp_experiments]' closure — which also pins the
    default selection parameters and machine configurations defined
    there), the OCaml version and the [max_insts] cap. Changing any of
    these, including any edit to those sources, invalidates every entry
    at once by moving the cache to a fresh subdirectory. Anything else a
    value depends on (a selection's parameters, a simulation's machine
    configuration) is part of its entry key. Entries carry a digest of
    their payload; a truncated, tampered-with or otherwise unreadable
    entry loads as [None] and the caller recomputes.

    The pre-decoded {!Dmp_exec.Image} form of a trace is not persisted
    — an image is ~8x the trace's bytes and decoding the cached trace
    in-memory ({!Runner.image}) is cheaper than reading the flat form
    back from disk. *)

open Dmp_ir
open Dmp_exec
open Dmp_profile
open Dmp_uarch
open Dmp_workload

type t

val env_max_bytes : unit -> (int option, string) result
(** The [DMP_CACHE_BYTES] environment variable, validated: [Ok None]
    when unset or blank (unlimited), [Ok (Some n)] for a positive
    integer, [Error msg] otherwise. CLIs call this at startup and turn
    an [Error] into an exit-2 usage error, like [DMP_JOBS]. *)

val create :
  ?dir:string -> ?max_bytes:int -> max_insts:int option -> unit -> t
(** [dir] defaults to ["_cache"]. Creates the directory eagerly;
    raises [Sys_error] if that is impossible.

    [max_bytes] caps the total payload bytes stored under [dir] across
    {e all} fingerprint subdirectories; it defaults to the validated
    [DMP_CACHE_BYTES] environment variable (unset means unlimited —
    the historical behaviour). A capped cache sums the entry sizes
    under [dir] once, here, and keeps a running total that each store
    adds its entry's bytes to. Only a store that takes the total over
    the cap rescans [dir] and evicts the least-recently-used entries
    (ordered by a per-entry [.atime] sidecar file, rewritten on every
    load and store; entries predating the sidecars order by mtime)
    until the total fits, so a store under the cap touches no other
    file. Entries written by another cache value or process count from
    the next rescan on. Eviction is crash- and race-tolerant: concurrent
    loads of an evicted entry are ordinary misses and never raise.
    @raise Invalid_argument when no [max_bytes] is given and
    [DMP_CACHE_BYTES] is set but invalid. *)

val dir : t -> string
(** The fingerprinted subdirectory entries of this cache live in. *)

val load_profile :
  t -> Linked.t -> bench:string -> set:Input_gen.set -> Profile.t option

val store_profile :
  t -> bench:string -> set:Input_gen.set -> Profile.t -> unit

val load_sampled_profile :
  t ->
  Linked.t ->
  bench:string ->
  set:Input_gen.set ->
  sampling:Dmp_sampling.Sampler.config ->
  Profile.t option
(** Profiles reconstructed from sparse hardware samples. The sampling
    mode, period and seed are part of the entry kind
    (["sprofile-<mode>-p<period>-s<seed>"]), so every distinct sampling
    configuration gets its own entry and can never serve a stale value
    for another. *)

val store_sampled_profile :
  t ->
  bench:string ->
  set:Input_gen.set ->
  sampling:Dmp_sampling.Sampler.config ->
  Profile.t ->
  unit

val load_baseline :
  t -> bench:string -> set:Input_gen.set -> Stats.t option

val store_baseline :
  t -> bench:string -> set:Input_gen.set -> Stats.t -> unit

val load_trace : t -> bench:string -> set:Input_gen.set -> Trace.t option
(** Packed architectural traces persist under the same fingerprint and
    digest discipline as profiles, so a cold process replays instead of
    re-emulating. *)

val store_trace : t -> bench:string -> set:Input_gen.set -> Trace.t -> unit

val load_stats :
  t -> bench:string -> set:Input_gen.set -> key:string -> Stats.t option
(** DMP statistics of one simulation, stored under the entry kind
    ["dmp-<md5 of key>"]. [key] must identify the simulation completely
    apart from what the fingerprint already pins: the runner uses its
    dedup-memo key (benchmark, input set, configuration digest, sim mode
    and compiled-annotation fingerprint). *)

val store_stats :
  t -> bench:string -> set:Input_gen.set -> key:string -> Stats.t -> unit

val load_selection :
  t -> bench:string -> set:Input_gen.set -> key:string ->
  Dmp_core.Annotation.t option
(** One compiler selection's annotation, stored under the entry kind
    ["sel-<md5 of key>"]. [key] must name everything the selection
    reads apart from what the fingerprint pins: the runner uses its
    selection-stage key (benchmark, input set, profile source, full
    selector and 2D pre-filter). *)

val store_selection :
  t -> bench:string -> set:Input_gen.set -> key:string ->
  Dmp_core.Annotation.t -> unit
