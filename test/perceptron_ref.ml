(* Test-only reference for Dmp_predictor.Perceptron: the predictor as
   it was before [Predictor.resolve] existed. Weights live in one array
   per table entry, [predict] and [update] each compute the dot product,
   and every history bit picks +1 or -1 with a host branch. The
   differential tests in test_predictor.ml require the fused,
   branch-free predictor to return the same predictions, history and
   exported state after every step. *)

open Dmp_predictor

type t = {
  hist : History.t;
  table : int array array;  (* entries x (hist_len + 1 bias) weights *)
  threshold : int;
  weight_max : int;
  weight_min : int;
  mutable history : int;
}

let create ?(entries = 256) ?(history_length = 31) () =
  let hist = History.make history_length in
  {
    hist;
    table = Array.init entries (fun _ -> Array.make (history_length + 1) 0);
    threshold = int_of_float ((1.93 *. float_of_int history_length) +. 14.);
    weight_max = 127;
    weight_min = -128;
    history = History.empty;
  }

let history t = t.history
let index t addr = addr mod Array.length t.table

(* Flat state snapshot: the global history followed by every weight in
   table order. [import] restores a snapshot taken from an identically
   shaped predictor; the length check catches geometry mismatches. *)
let export t =
  let entries = Array.length t.table in
  let width = Array.length t.table.(0) in
  let out = Array.make (1 + (entries * width)) 0 in
  out.(0) <- t.history;
  for e = 0 to entries - 1 do
    Array.blit t.table.(e) 0 out (1 + (e * width)) width
  done;
  out

let import t state =
  let entries = Array.length t.table in
  let width = Array.length t.table.(0) in
  if Array.length state <> 1 + (entries * width) then
    invalid_arg "Perceptron.import: state length mismatch";
  t.history <- state.(0);
  for e = 0 to entries - 1 do
    Array.blit state (1 + (e * width)) t.table.(e) 0 width
  done

let output t ~history ~addr =
  let w = t.table.(index t addr) in
  let n = History.length t.hist in
  let acc = ref w.(0) in
  for i = 0 to n - 1 do
    let x = if History.bit t.hist history i then 1 else -1 in
    acc := !acc + (w.(i + 1) * x)
  done;
  !acc

let predict_with_history t ~history ~addr = output t ~history ~addr >= 0
let predict t ~addr = predict_with_history t ~history:t.history ~addr
let shift t ~history ~taken = History.shift t.hist history ~taken

let clamp t v = if v > t.weight_max then t.weight_max
  else if v < t.weight_min then t.weight_min else v

let update t ~addr ~taken =
  let out = output t ~history:t.history ~addr in
  let predicted_taken = out >= 0 in
  let w = t.table.(index t addr) in
  if predicted_taken <> taken || abs out <= t.threshold then begin
    let sign = if taken then 1 else -1 in
    w.(0) <- clamp t (w.(0) + sign);
    let n = History.length t.hist in
    for i = 0 to n - 1 do
      let x = if History.bit t.hist t.history i then 1 else -1 in
      w.(i + 1) <- clamp t (w.(i + 1) + (sign * x))
    done
  end;
  t.history <- History.shift t.hist t.history ~taken
