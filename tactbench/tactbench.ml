(* The TACT benchmark.  Usage:

     tactbench.exe --workload W --seed N --seconds S --trace 0|1
                   --serve-exe PATH --out-dir DIR [--benchmark FILE] [--commit ID]

   Workloads:
     serve_write  closed loop of weak Submits through 3 tact_serve daemons
     sim_sharded  a seeded sharded simulation drained on nproc domains

   A run repeats fixed-size rounds (each with a fresh fleet or system)
   until S seconds have passed, and reports medians over rounds.  With
   --trace 0 it prints the end-to-end metrics of the benchmark file
   (default BENCHMARK.json); with --trace 1 its per-layer metrics, from
   separate traced passes.  Output checks that fail make the result
   "correct": false and the exit status 1. *)

module Json = Tact_check.Json

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable serve_exe : string;
  mutable out_dir : string;
  mutable benchmark : string;
  mutable commit : string;
}

let usage () =
  prerr_endline
    "usage: tactbench.exe --workload serve_write|sim_sharded --seed N --seconds S \
     --trace 0|1 --serve-exe PATH --out-dir DIR [--benchmark FILE] [--commit ID]";
  exit 2

let parse argv =
  let a =
    { workload = ""; seed = 1; seconds = 10.0; trace = false; serve_exe = ""; out_dir = ".";
      benchmark = "BENCHMARK.json"; commit = "unknown" }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> a.workload <- v; go r
    | "--seed" :: v :: r -> a.seed <- int_of_string v; go r
    | "--seconds" :: v :: r -> a.seconds <- float_of_string v; go r
    | "--trace" :: v :: r -> a.trace <- v = "1"; go r
    | "--serve-exe" :: v :: r -> a.serve_exe <- v; go r
    | "--out-dir" :: v :: r -> a.out_dir <- v; go r
    | "--benchmark" :: v :: r -> a.benchmark <- v; go r
    | "--commit" :: v :: r -> a.commit <- v; go r
    | x :: _ -> Printf.eprintf "tactbench: unknown argument %s\n" x; usage ()
  in
  (try go argv with Failure _ -> usage ());
  a

let nproc = Domain.recommended_domain_count ()

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  (* A daemon that hangs up must surface as an error, not kill the run. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let run =
    match a.workload with
    | "serve_write" ->
      if not (Sys.file_exists a.serve_exe) then begin
        Printf.eprintf "tactbench: tact_serve executable %S not found\n" a.serve_exe;
        exit 2
      end;
      if a.trace then Serve_wl.traced else Serve_wl.untraced
    | "sim_sharded" -> if a.trace then Sim_wl.traced else Sim_wl.untraced
    | w -> Printf.eprintf "tactbench: unknown workload %S\n" w; usage ()
  in
  let ctx =
    { Wl.workload = a.workload; seed = a.seed; seconds = a.seconds; serve_exe = a.serve_exe;
      out_dir = a.out_dir; nproc }
  in
  let names = Layers.load a.benchmark (if a.trace then "per_layer" else "end_to_end") in
  let o : Wl.outcome = run ctx in
  let o = { o with Wl.metrics = Layers.complete names o.Wl.metrics } in
  let correct = o.Wl.errors = [] && o.Wl.failed = 0 in
  Printf.printf "tactbench %s seed=%d seconds=%g trace=%b nproc=%d ocaml=%s commit=%s\n"
    a.workload a.seed a.seconds a.trace nproc Sys.ocaml_version a.commit;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) o.Wl.errors;
  Report.print_lines o.Wl.metrics;
  if o.Wl.extra <> [] then begin
    print_endline "  -- workload detail --";
    Report.print_lines o.Wl.extra
  end;
  let result = Report.result_json ~correct ~attempted:o.Wl.attempted ~failed:o.Wl.failed o.Wl.metrics in
  let stamped =
    Json.Obj
      [
        ("workload", Json.Str a.workload);
        ("seed", Json.Num (float_of_int a.seed));
        ("trace", Json.Bool a.trace);
        ("nproc", Json.Num (float_of_int nproc));
        ("ocaml_version", Json.Str Sys.ocaml_version);
        ("commit", Json.Str a.commit);
        ("result", result);
        ("detail", Report.metrics_json o.Wl.extra);
        ( "rounds",
          Json.Obj
            (List.map
               (fun (name, vs) -> (name, Json.Arr (List.map (fun v -> Json.Num (Report.finite v)) vs)))
               o.Wl.series) );
      ]
  in
  Report.write_file
    (Filename.concat a.out_dir
       (Printf.sprintf "result-%s-seed%d-trace%d.json" a.workload a.seed (if a.trace then 1 else 0)))
    (Json.to_string ~indent:true stamped);
  print_endline (Json.to_string ~indent:false result);
  Fleet.kill_all ();
  exit (if correct then 0 else 1)
