(** Textual assembly for IR programs. [to_string] emits a form that
    [of_string] parses back; the round trip preserves the program
    structure exactly (block order, labels, instructions, branch
    targets).

    Syntax sketch:
    {v
    func main {
    entry:
      li r4, 100
      add r5, r4, 3
      ld r6, 8(r5)
      bne r4, 0, then_lbl, else_lbl   ; taken target, fall-through
    then_lbl:
      jmp join
    ...
    }
    v}

    [;] starts a comment. The first function is the program's main. *)

val to_string : Program.t -> string

val of_string : string -> (Program.t, string) result
(** Never raises: malformed input is an [Error], with a line number
    where one applies. *)
