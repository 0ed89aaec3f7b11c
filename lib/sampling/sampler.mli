(** Sampled hardware-profile collection.

    The paper's compiler consumes an exact edge/misprediction profile;
    every production PGO pipeline instead feeds it sparse hardware
    counters — periodic PMU samples, LBR last-K-branch records, or
    mispredict-event samples à la HWPGO. This module models those three
    collection modes over the same architectural event stream the exact
    profiler consumes ({!Dmp_exec.Source}), so sampled and exact
    profiles of one run are directly comparable.

    What a sampler observes:

    - Free-running totals — retired instructions, conditional-branch
      retirements, mispredictions under the profiling predictor — are
      counted {e exactly}, like real PMU fixed counters read alongside
      the sampling event.
    - At each {e sample trigger} it records the current retirement:
      the (IP, next-IP) pair (charging a block-entry hit when the next
      instruction starts a basic block) and, when the sampled
      instruction is a conditional branch, its direction and whether
      the profiling predictor mispredicted it.
    - In {!Lbr} and {!Mispredict} modes a ring of the last K
      conditional-branch records (address, direction, misprediction) is
      flushed into the sample and cleared (clearing models the
      overlapping-window deduplication real LBR tools perform).

    Triggers: {!Periodic} and {!Lbr} fire every ~[period] retired
    instructions; {!Mispredict} fires every ~[period] misprediction
    events, which concentrates coverage on exactly the hard branches
    DMP cares about and leaves predictable code nearly unsampled. All
    gaps carry a deterministic seeded jitter (±period/4) so sampling
    never locks onto loop periods yet remains reproducible: the same
    (config, stream) always yields the same samples, on any domain.
    A [period] of 1 has no jitter and samples every trigger event.

    The profiling predictor runs over {e every} conditional branch
    regardless of the sampling period — mirroring the hardware
    predictor, whose outcome a sample merely reads — so the
    misprediction bits of sparse samples are drawn from the same
    predictor state the exact profiler sees. *)

open Dmp_ir
open Dmp_exec
open Dmp_predictor

type mode =
  | Periodic  (** retired-instruction trigger; records the IP only *)
  | Lbr of int
      (** retired-instruction trigger; each sample also flushes the
          last-K conditional-branch records *)
  | Mispredict
      (** misprediction-event trigger (HWPGO-style); each sample
          records the mispredicting branch plus the last
          {!default_lbr_depth} branch records *)

type config = { mode : mode; period : int; seed : int }

val default_lbr_depth : int

val mode_to_string : mode -> string
val mode_of_string : string -> mode option
(** Accepts ["periodic"], ["lbr"] (default depth), ["lbrK"] for a
    positive K, and ["misp"] / ["mispredict"]. *)

val config_to_string : config -> string
(** Filename-safe rendering, e.g. ["lbr16-p1000-s42"]. Injective on
    valid configs — two configs differing in mode, period or seed
    render differently. *)

type counters = {
  mutable s_executed : int;
  mutable s_taken : int;
  mutable s_mispredicted : int;
}

type t

val collect_source :
  ?predictor:Predictor.t -> ?max_insts:int -> config:config -> Linked.t ->
  Source.t -> t
(** Consume the stream and collect samples. The default [predictor] is
    the same profiling perceptron {!Dmp_profile.Profile.collect_source}
    uses, and the cap semantics are identical, so a period-1
    {!Periodic} sampler observes exactly the events the exact profiler
    counts. Raises [Invalid_argument] on [period < 1] or a
    non-positive LBR depth. *)

val collect_trace :
  ?predictor:Predictor.t -> ?max_insts:int -> config:config -> Linked.t ->
  Trace.t -> t
(** {!collect_source} over a packed-trace replay. *)

val config : t -> config

val complete_coverage : t -> bool
(** A {!Periodic} sampler with [period = 1] observed every retired
    instruction: reconstruction degenerates to the exact profile. *)

(** {2 Exact free-running totals} *)

val retired : t -> int
val total_branches : t -> int
val total_mispredicted : t -> int

val samples : t -> int
(** Number of trigger firings. *)

val lbr_captured : t -> int
(** Total branch records flushed from the LBR ring across all samples. *)

(** {2 Sparse sampled counters}

    Address lists are sorted ascending, so iteration over a sampler is
    deterministic regardless of hash-table internals. *)

val block_hits : t -> (int * int) list
(** [(block start address, hits)] — one hit per sample whose retirement
    crossed into that block. *)

val block_hit : t -> addr:int -> int

val ip_branch : t -> addr:int -> counters option
(** Trigger-point branch observations: in {!Periodic}/{!Lbr} mode,
    samples that landed on a conditional branch; in {!Mispredict} mode
    the sampled misprediction events themselves. *)

val ip_branch_addrs : t -> int list

val lbr_branch : t -> addr:int -> counters option
(** Branch observations from flushed LBR records. *)

val lbr_branch_addrs : t -> int list
