(** Perceptron branch predictor (Jiménez & Lin, HPCA-7). *)

type t

val create : ?entries:int -> ?history_length:int -> unit -> t
val history : t -> int
val predict_with_history : t -> history:int -> addr:int -> bool
val shift : t -> history:int -> taken:bool -> int

val resolve : t -> addr:int -> taken:bool -> bool
(** Resolve one architectural branch: return the prediction for [addr]
    under the current history, train on [taken], and shift [taken] into
    the global history. The dot product is computed once. *)

val export : t -> int array
(** Flat snapshot of the mutable state (global history + weights),
    suitable for a {!Dmp_exec.Checkpoint} section. *)

val import : t -> int array -> unit
(** Restore a snapshot taken by {!export} from an identically
    configured predictor.
    @raise Invalid_argument on a length mismatch. *)
