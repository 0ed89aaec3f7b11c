(** Compact serializable machine-state snapshot.

    A checkpoint pairs the number of consumed trace events with named
    sections of flat int arrays. The simulator packs its architectural,
    predictor and cache state into sections when it reaches a safe
    capture point and unpacks them on resume; this container only owns
    the (versioned, checksummed) wire format, so subsystems keep their
    own layouts private. *)

type t

val create : consumed:int -> (string * int array) list -> t
(** @raise Invalid_argument on a negative consumed count, a duplicate
    section name, or a name that is empty or longer than 255 bytes. *)

val consumed : t -> int
(** Trace events consumed before the snapshot was taken — the segment
    boundary this checkpoint represents. *)

val sections : t -> (string * int array) list
val section : t -> string -> int array
(** @raise Invalid_argument when the section is absent. *)

val section_opt : t -> string -> int array option

val byte_size : t -> int
(** Size of {!to_bytes}'s result, without building it. *)

val to_bytes : t -> bytes
(** Self-contained byte form: magic, counts, sections (8-byte
    little-endian integers), MD5 checksum. *)

val of_bytes : bytes -> (t, string) result
(** Inverse of {!to_bytes}; [Error] on truncated, corrupt, or
    foreign input (never raises). *)
