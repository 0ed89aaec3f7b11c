type t = {
  name : string;
  resolve : addr:int -> taken:bool -> bool;
  history : unit -> int;
  predict_with_history : history:int -> addr:int -> bool;
  shift_history : history:int -> taken:bool -> int;
  export_state : unit -> int array;
  import_state : int array -> unit;
}

let perceptron ?entries ?history_length () =
  let p = Perceptron.create ?entries ?history_length () in
  {
    name = "perceptron";
    resolve = (fun ~addr ~taken -> Perceptron.resolve p ~addr ~taken);
    history = (fun () -> Perceptron.history p);
    predict_with_history =
      (fun ~history ~addr -> Perceptron.predict_with_history p ~history ~addr);
    shift_history =
      (fun ~history ~taken -> Perceptron.shift p ~history ~taken);
    export_state = (fun () -> Perceptron.export p);
    import_state = (fun state -> Perceptron.import p state);
  }

let gshare ?log2_entries ?history_length () =
  let p = Gshare.create ?log2_entries ?history_length () in
  {
    name = "gshare";
    resolve = (fun ~addr ~taken -> Gshare.resolve p ~addr ~taken);
    history = (fun () -> Gshare.history p);
    predict_with_history =
      (fun ~history ~addr -> Gshare.predict_with_history p ~history ~addr);
    shift_history = (fun ~history ~taken -> Gshare.shift p ~history ~taken);
    export_state = (fun () -> Gshare.export p);
    import_state = (fun state -> Gshare.import p state);
  }

let always ~taken =
  {
    name = (if taken then "always-taken" else "always-not-taken");
    resolve = (fun ~addr:_ ~taken:_ -> taken);
    history = (fun () -> 0);
    predict_with_history = (fun ~history:_ ~addr:_ -> taken);
    shift_history = (fun ~history ~taken:_ -> history);
    export_state = (fun () -> [||]);
    import_state =
      (fun state ->
        if Array.length state <> 0 then
          invalid_arg "Predictor.import_state: state length mismatch");
  }

let of_name = function
  | "perceptron" -> perceptron ()
  | "gshare" -> gshare ()
  | "always-taken" -> always ~taken:true
  | "always-not-taken" -> always ~taken:false
  | name -> invalid_arg ("Predictor.of_name: unknown predictor " ^ name)
