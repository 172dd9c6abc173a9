(* The metric names and units a run reports, read from BENCHMARK.json: its
   end_to_end list (untraced) or its per_layer list (traced).  A per-layer
   metric of a layer the workload does not exercise reads 0 (no work done
   there). *)

module Json = Tact_check.Json

(* The (name, unit) pairs of [key] ("end_to_end" or "per_layer") in the
   benchmark file at [path]. *)
let load path key =
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let doc = match Json.parse text with Ok d -> d | Error e -> fail e in
  let entries = match Option.bind (Json.member key doc) Json.to_list with Some l -> l | None -> fail ("no " ^ key) in
  List.map
    (fun e ->
      let field f = match Option.bind (Json.member f e) Json.to_str with Some s -> s | None -> fail ("bad " ^ key) in
      (field "name", field "unit"))
    entries

(* Lay [ms] out on [names]: every listed metric once, in order, 0 where
   the workload measured nothing.  A measured metric that is not listed, or
   has another unit, is a bug in the benchmark. *)
let complete names (ms : Report.metric list) =
  List.iter
    (fun (x : Report.metric) ->
      match List.assoc_opt x.Report.name names with
      | Some u when u = x.Report.unit_ -> ()
      | _ -> invalid_arg ("Layers.complete: unlisted metric " ^ x.Report.name))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : Report.metric) -> x.Report.name = name) ms with
      | Some x -> x
      | None -> Report.m name unit_ 0.0)
    names
