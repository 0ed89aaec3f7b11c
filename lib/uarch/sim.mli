(** Cycle-level execution-driven simulator of the baseline processor
    and the diverge-merge processor.

    The correct path is the architectural event stream, read from a
    pre-decoded {!Dmp_exec.Image.t}; wrong-path and
    dynamically-predicated wrong-side fetch walk the static code under
    the branch predictor with a speculative history copy. Timing comes
    from a dataflow model (dispatch [front_depth] cycles after fetch;
    start when source registers are ready; loads ask the cache
    hierarchy) with in-order retirement through a reorder buffer.

    With [config.dmp_enabled] and an annotation, fetching a
    low-confidence (or always-predicate) diverge branch enters
    dpred-mode: both paths are fetched in alternate cycles until they
    reach the same CFM point (select-µops are then inserted) or the
    branch resolves — either way without a pipeline flush. Loop diverge
    branches use the iteration-oriented mechanism with the paper's
    correct / early-exit / late-exit / no-exit cases.

    Decode a trace once with {!Dmp_exec.Image.of_trace}, then share the
    image across every simulation of that (benchmark, input) pair; the
    per-event cost is plain array indexing. {!run} wraps the capture
    and decode for one-off simulations of an input. *)

open Dmp_ir
open Dmp_exec
open Dmp_core

type t

val create_image :
  ?config:Config.t -> ?annotation:Annotation.t -> ?max_insts:int ->
  Linked.t -> Image.t -> t
(** A simulation whose correct path is the pre-decoded image of a trace
    of the same linked program. The image must cover [max_insts]
    instructions (i.e. be decoded from a trace captured with the same
    or a larger cap, or from a {!Trace.complete} one).
    @raise Invalid_argument if the image contains an address outside
    the linked program (it was decoded from some other program's
    trace). *)

val run_to_completion : t -> Stats.t

val run_image :
  ?config:Config.t -> ?annotation:Annotation.t -> ?max_insts:int ->
  Linked.t -> Image.t -> Stats.t
(** Convenience: [create_image] + [run_to_completion]. *)

val run :
  ?config:Config.t -> ?annotation:Annotation.t -> ?max_insts:int ->
  Linked.t -> input:int array -> Stats.t
(** Convenience: capture the trace of [input] (up to [max_insts]
    events), decode it and {!run_image} it. Callers simulating one
    input several times should capture and decode once instead. *)

val stats : t -> Stats.t

val merge_predictions : t -> (int * int * int) list
(** Under a [Config.Dynamic] merge provider, the Merge Point Table's
    current (branch, merge, confidence) entries
    ({!Dmp_mpp.Mpt.predictions}); [[]] under the static provider. The
    invariant checker validates each predicted merge point against the
    true CFG. *)

(** {2 Checkpoints}

    A checkpoint ({!Dmp_exec.Checkpoint}) snapshots the full machine
    state — trace position, pipeline timing, statistics, branch
    predictor and confidence tables, cache contents — at a {e safe
    point}: a cycle boundary in normal mode with no dpred episode and
    no misprediction recovery in flight. Episodes are bounded, so safe
    boundaries recur; restricting capture to them keeps the episode
    state machines out of the snapshot. The image position makes the
    trace position restorable. *)

val checkpoint : t -> Dmp_exec.Checkpoint.t
(** Snapshot the current state.
    @raise Invalid_argument unless the simulation sits at a safe
    point. *)

val resume_image :
  ?config:Config.t -> ?annotation:Annotation.t -> ?max_insts:int ->
  Linked.t -> Image.t -> Dmp_exec.Checkpoint.t -> t
(** Rebuild a simulation from a checkpoint over the same image, linked
    program, configuration and annotation as the run that captured it;
    [run_to_completion] on the result reproduces the original run's
    final statistics byte-identically (the round-trip property).
    @raise Invalid_argument when the checkpoint's shape fingerprints
    (image length, ROB size, register count) do not match, or its trace
    position is not one a run over this image can reach: the position
    outside [\[-1, Image.length)], a pending or trace-done flag other
    than 0 or 1, or a consumed count other than [pos + 1 - pending]. *)

val run_image_checkpointed :
  ?config:Config.t -> ?annotation:Annotation.t -> ?max_insts:int ->
  interval:int -> Linked.t -> Image.t -> Stats.t * Dmp_exec.Checkpoint.t list
(** Like {!run_image}, additionally capturing a checkpoint at the first
    safe cycle boundary at or after every multiple of [interval]
    consumed events (while the trace is live). The statistics are
    byte-identical to {!run_image}'s; the checkpoints split the run
    into [1 + length ckpts] segments. *)

val run_image_segment :
  ?config:Config.t -> ?annotation:Annotation.t -> ?max_insts:int ->
  ?from:Dmp_exec.Checkpoint.t -> interval:int -> to_completion:bool ->
  Linked.t -> Image.t -> Stats.t
(** Exactly re-simulate one segment of a checkpointed run: start from
    [from] (or from the beginning) and stop where the capturing run
    with the same [interval] took its next checkpoint — or run to the
    end when [to_completion] is set (the last segment). Returns the
    segment's {e delta} statistics; folding every segment's delta with
    {!Stats.merge} reproduces the whole-run statistics exactly. *)

val run_image_sampled :
  ?config:Config.t -> ?annotation:Annotation.t -> ?max_insts:int ->
  ?from:Dmp_exec.Checkpoint.t -> length:int -> warmup:int -> window:int ->
  Linked.t -> Image.t -> Stats.t
(** Interval sampling: estimate the statistics of a [length]-event
    segment starting at [from] by simulating only a [warmup] prefix
    (timing warm-up; discarded) and a [window] measurement, then
    scaling the measured counters by [length/window]. The architectural
    state (trace position, predictor, confidence, caches) is restored
    exactly from the checkpoint — those tables are a function of the
    consumed event prefix only, hence valid for {e any} annotation —
    while the pipeline timing starts cold. Segments no longer than
    [warmup + window] are simulated in full instead of scaled.
    @raise Invalid_argument on a checkpoint {!resume_image} rejects for
    its shape or trace position. *)
