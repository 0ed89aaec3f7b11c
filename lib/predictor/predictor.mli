(** Uniform conditional-branch predictor interface.

    [resolve] drives the architectural (correct-path) stream;
    [predict_with_history]/[shift_history] let the simulator's
    wrong-path and dynamic-predication fetch engines follow speculative
    predictions on a private history copy without polluting the tables.
    [export_state]/[import_state] snapshot and restore the underlying
    tables and history as one flat int array (for simulation
    checkpoints); a snapshot only imports into a predictor of the same
    kind and geometry. *)

type t = {
  name : string;
  resolve : addr:int -> taken:bool -> bool;
      (** [resolve ~addr ~taken] handles one architectural conditional
          branch at [addr] whose outcome is [taken]. It returns the
          prediction made under the current global history, i.e. before
          the outcome is known; the branch was mispredicted when the
          result differs from [taken]. It then trains the tables on
          [taken] and shifts [taken] into the global history. The
          prediction is the one [predict_with_history ~history:(history
          ()) ~addr] gives just before the call, and the perceptron
          computes its dot product once for both the answer and the
          training decision. *)
  history : unit -> int;
      (** The global history that the next [resolve] predicts under. *)
  predict_with_history : history:int -> addr:int -> bool;
      (** Prediction under a caller-supplied history; no state
          changes. *)
  shift_history : history:int -> taken:bool -> int;
      (** [history] with [taken] shifted in, as [resolve] would; no
          state changes. *)
  export_state : unit -> int array;
  import_state : int array -> unit;
}

val perceptron : ?entries:int -> ?history_length:int -> unit -> t
(** The paper's baseline: perceptron predictor (Jiménez & Lin). *)

val gshare : ?log2_entries:int -> ?history_length:int -> unit -> t
val always : taken:bool -> t
val of_name : string -> t
