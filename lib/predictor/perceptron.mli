(** Perceptron branch predictor (Jiménez & Lin, HPCA-7): the predictor
    of the paper's Table 1 machine, and the one every profiler and
    every simulated machine here uses.

    [resolve] drives the architectural (correct-path) stream;
    [predict_with_history] and [shift] let the simulator's wrong-path
    and dynamic-predication fetch engines follow speculative
    predictions on a private history copy without touching the
    tables. *)

type t

val create : ?entries:int -> ?history_length:int -> unit -> t
(** Defaults: 256 entries, 31 bits of global history. *)

val history : t -> int
(** The global history that the next [resolve] predicts under. *)

val predict_with_history : t -> history:int -> addr:int -> bool
(** Prediction under a caller-supplied history; no state changes. *)

val shift : t -> history:int -> taken:bool -> int
(** [history] with [taken] shifted in, as [resolve] would; no state
    changes. *)

val resolve : t -> addr:int -> taken:bool -> bool
(** Resolve one architectural branch: return the prediction for [addr]
    under the current history (the branch was mispredicted when it
    differs from [taken]), train on [taken], and shift [taken] into
    the global history. The prediction is the one
    [predict_with_history ~history:(history t) ~addr] gives just before
    the call; the dot product is computed once for both the answer and
    the training decision. *)

val export : t -> int array
(** Flat snapshot of the mutable state (global history + weights),
    suitable for a {!Dmp_exec.Checkpoint} section. *)

val import : t -> int array -> unit
(** Restore a snapshot taken by {!export} from an identically
    configured predictor.
    @raise Invalid_argument on a length mismatch. *)
