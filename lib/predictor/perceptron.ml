(* Perceptron branch predictor (Jiménez & Lin, HPCA-7), the paper's
   baseline predictor. One weight vector per table entry; prediction is
   the sign of the dot product of the weights with the global history.

   The weights are one flat entry-major array: entry [e] owns the
   [width] slots from [e * width], the bias first and then one weight
   per history bit, the most recent bit first. An input x = +1 (taken)
   or -1 (not taken) scales a value without a host branch: with
   [m = bit - 1], which is 0 for a taken bit and -1 for a not-taken one,
   [(v lxor m) - m] is [v * x]. *)

type t = {
  hist : History.t;
  entries : int;
  width : int;  (* history_length + 1 bias *)
  weights : int array;  (* entries * width, entry-major *)
  threshold : int;
  weight_max : int;
  weight_min : int;
  mutable history : int;
}

let create ?(entries = 256) ?(history_length = 31) () =
  let hist = History.make history_length in
  let width = history_length + 1 in
  {
    hist;
    entries;
    width;
    weights = Array.make (entries * width) 0;
    threshold = int_of_float ((1.93 *. float_of_int history_length) +. 14.);
    weight_max = 127;
    weight_min = -128;
    history = History.empty;
  }

let history t = t.history

(* First slot of [addr]'s weight vector. A negative address gives a
   negative base, which the checked bias read in [output] rejects;
   every other slot of the vector is then in bounds. *)
let base t addr = (addr mod t.entries) * t.width

(* Flat state snapshot: the global history followed by every weight in
   table order. [import] restores a snapshot taken from an identically
   shaped predictor; the length check catches geometry mismatches. *)
let export t =
  let n = Array.length t.weights in
  let out = Array.make (1 + n) 0 in
  out.(0) <- t.history;
  Array.blit t.weights 0 out 1 n;
  out

let import t state =
  let n = Array.length t.weights in
  if Array.length state <> 1 + n then
    invalid_arg "Perceptron.import: state length mismatch";
  t.history <- state.(0);
  Array.blit state 1 t.weights 0 n

let output t ~history ~base =
  let w = t.weights in
  let acc = ref w.(base) in
  let h = ref history in
  for i = base + 1 to base + t.width - 1 do
    let m = (!h land 1) - 1 in
    acc := !acc + ((Array.unsafe_get w i lxor m) - m);
    h := !h lsr 1
  done;
  !acc

let predict_with_history t ~history ~addr =
  output t ~history ~base:(base t addr) >= 0

let shift t ~history ~taken = History.shift t.hist history ~taken

let clamp t v = if v > t.weight_max then t.weight_max
  else if v < t.weight_min then t.weight_min else v

(* Move every weight of the vector one step towards agreement with
   [taken]: the bias by [sign], the weight of history bit i by
   [sign * x_i]. *)
let train t ~base ~taken =
  let w = t.weights in
  let sign = if taken then 1 else -1 in
  w.(base) <- clamp t (w.(base) + sign);
  let h = ref t.history in
  for i = base + 1 to base + t.width - 1 do
    let m = (!h land 1) - 1 in
    Array.unsafe_set w i (clamp t (Array.unsafe_get w i + ((sign lxor m) - m)));
    h := !h lsr 1
  done

let resolve t ~addr ~taken =
  let base = base t addr in
  let out = output t ~history:t.history ~base in
  let predicted = out >= 0 in
  if predicted <> taken || abs out <= t.threshold then train t ~base ~taken;
  t.history <- History.shift t.hist t.history ~taken;
  predicted
