(* Classic gshare: a table of 2-bit saturating counters indexed by
   PC xor global history. Used as a comparison predictor and by the
   profiler's cheap misprediction estimate. *)

type t = {
  hist : History.t;
  table : int array;
  mutable history : int;
}

let create ?(log2_entries = 14) ?(history_length = 14) () =
  let hist = History.make history_length in
  { hist; table = Array.make (1 lsl log2_entries) 1; history = History.empty }

let history t = t.history

let index t ~history ~addr =
  (addr lxor History.fold t.hist history) land (Array.length t.table - 1)

let predict_with_history t ~history ~addr =
  t.table.(index t ~history ~addr) >= 2

let shift t ~history ~taken = History.shift t.hist history ~taken

let resolve t ~addr ~taken =
  let i = index t ~history:t.history ~addr in
  let c = t.table.(i) in
  t.table.(i) <- (if taken then min 3 (c + 1) else max 0 (c - 1));
  t.history <- History.shift t.hist t.history ~taken;
  c >= 2

(* Flat state snapshot: global history followed by the counter table. *)
let export t =
  let n = Array.length t.table in
  let out = Array.make (1 + n) 0 in
  out.(0) <- t.history;
  Array.blit t.table 0 out 1 n;
  out

let import t state =
  let n = Array.length t.table in
  if Array.length state <> 1 + n then
    invalid_arg "Gshare.import: state length mismatch";
  t.history <- state.(0);
  Array.blit state 1 t.table 0 n
