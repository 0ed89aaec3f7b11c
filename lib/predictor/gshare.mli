(** Gshare predictor: 2-bit counters indexed by PC xor history. *)

type t

val create : ?log2_entries:int -> ?history_length:int -> unit -> t
val history : t -> int
val predict_with_history : t -> history:int -> addr:int -> bool
val shift : t -> history:int -> taken:bool -> int

val resolve : t -> addr:int -> taken:bool -> bool
(** Return the prediction for [addr], train the counter on [taken] and
    shift [taken] into the global history. *)

val export : t -> int array
(** Flat snapshot of the mutable state (global history + counters). *)

val import : t -> int array -> unit
(** Restore an {!export} snapshot from an identically configured
    predictor. @raise Invalid_argument on a length mismatch. *)
