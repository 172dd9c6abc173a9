(* What every workload receives and returns. *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;  (* measuring time of the run *)
  serve_exe : string;
  out_dir : string;
  nproc : int;
}

(* The outcome of one run: the metrics of BENCHMARK.json (end-to-end, or
   per-layer when traced), extra workload-specific lines that are printed
   and saved but not part of the result object, and the checks. *)
type outcome = {
  metrics : Report.metric list;
  extra : Report.metric list;
  attempted : int;
  failed : int;
  errors : string list;
  series : (string * float list) list;  (* per-round values, saved with the result *)
}

(* Repeat a fixed-size [round] until [ctx.seconds] have passed, and at
   least [min_rounds] times. *)
let rounds ctx ~min_rounds round =
  let start = Unix.gettimeofday () in
  let rec go i acc =
    if i >= min_rounds && Unix.gettimeofday () -. start >= ctx.seconds then List.rev acc
    else go (i + 1) (round i :: acc)
  in
  go 0 []
