(** Differential oracle harness over the redundant execution paths.

    The repo deliberately keeps three producers of the correct-path
    event stream (live emulator, packed-trace replay, pre-decoded
    image), two ways to run a simulation over an image (one pass, or
    split at checkpoints) and two profile paths (exact instrumentation,
    sampled + flow-conservation reconstruction, which at period 1 must
    degenerate to the exact profile). The oracle runs them against each
    other for one program + input and reports any divergence: event
    streams are diffed lockstep and the first diverging event is
    pinpointed by index and address; simulator statistics are diffed
    field-by-field; profiles are diffed down to the first differing
    branch or block counter. *)

open Dmp_ir
open Dmp_exec
open Dmp_core
open Dmp_uarch

val stats_mismatches : Stats.t -> Stats.t -> (string * int * int) list
(** Fields on which the two stats structs disagree, as
    [(field, left, right)] in declaration order. *)

val check_streams :
  ?max_insts:int -> Linked.t -> input:int array -> Trace.t -> Image.t ->
  Diagnostic.t list
(** Replay the packed trace and decode the image in lockstep with an
    emulator stepped here ({!Dmp_exec.Emulator.step}); report the first
    diverging event (index + address) of either pair, and any length
    disagreement. *)

val check_checkpoints :
  ?max_insts:int -> label:string -> Config.t -> Annotation.t option ->
  Linked.t -> Image.t -> Diagnostic.t list
(** Cross-check the checkpointed execution machinery (rule
    ["oracle-checkpoint"]): a checkpointing run, a resume from every
    captured checkpoint, and the {!Dmp_uarch.Stats.merge} of the
    per-segment deltas must each reproduce the plain image
    simulation's statistics field-for-field. *)

val check_profiles :
  ?max_insts:int -> Linked.t -> input:int array -> Trace.t ->
  Diagnostic.t list
(** Exact profile from a fresh capture of [input] vs from the given
    trace's replay vs
    reconstructed from a period-1 periodic sampler; all three must have
    byte-identical serialised counters, and the period-1 reconstruction
    must satisfy flow conservation. *)

val check_transform :
  ?max_insts:int -> ?label:string -> original:Linked.t ->
  transformed:Linked.t -> ignore_regs:Reg.t list -> input:int array ->
  unit -> Diagnostic.t list
(** Architectural-equivalence diff between a program and its
    software-predicated rewrite ({!Dmp_transform.Pipeline}) replayed
    on the same input: output stream, retired-store sequence
    (location and value, in order), and — when both runs halt — the
    final register file minus [ignore_regs] (the transform's
    predicate/scratch residue) and the final memory image. The first
    divergence of each comparison is pinpointed by index. Under a
    [max_insts] cap only the common prefix of the sequences is
    compared (rules ["transform-*"]). *)

val run :
  ?max_insts:int -> ?annotations:(string * Annotation.t) list ->
  Linked.t -> input:int array -> Diagnostic.t list
(** Capture a trace and image, then run every check above; [annotations]
    are (label, annotation) pairs each given a DMP checkpoint diff. *)
