(* Per-layer metrics of a traced run.

   Times are summed from the recorded spans: the benchmark's own spans
   around public calls, and the program's Obs spans grafted beneath
   them.  A span nested inside another of the same group counts once.
   Counts come from [Obs.Metric] deltas over the rounds, from span
   metrics where a count must be attributed to one layer, or from the
   round-one analyses.  Everything is per round except the oracle
   phase's interpreter figures and [core.provenance_ms], which are per
   run. *)

module A = Core.Analyze

let children spans =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span) -> Hashtbl.add tbl s.Trace.parent s) spans;
  fun id -> Hashtbl.find_all tbl id

let by_id spans =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace tbl s.Trace.id s) spans;
  tbl

(* Milliseconds in spans named in [group], outermost only. *)
let group_ms spans ids group =
  let rec nested (s : Trace.span) =
    match Hashtbl.find_opt ids s.Trace.parent with
    | None -> false
    | Some p -> List.mem p.Trace.name group || nested p
  in
  List.fold_left
    (fun acc (s : Trace.span) ->
      if List.mem s.Trace.name group && not (nested s) then acc +. Trace.dur s else acc)
    0. spans

let named name spans = List.filter (fun (s : Trace.span) -> s.Trace.name = name) spans

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let time f =
  let t0 = Trace.now_ns () in
  ignore (f ());
  float_of_int (Trace.now_ns () - t0) *. 1e-6

(* [Analyze.run ~provenance:true] minus [~provenance:false], best of
   two each. *)
let provenance_ms prog =
  let best p = min (time (fun () -> A.run ~provenance:p prog)) (time (fun () -> A.run ~provenance:p prog)) in
  best true -. best false

(* Which path each session edit takes, replayed on a local engine:
   "cone", or the engine's fallback reason. *)
let edit_paths sessions =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (mirror0, edits) ->
      let engine = Incremental.Engine.of_analysis (A.run ~provenance:true mirror0) in
      List.iter
        (fun e ->
          let path =
            match (Incremental.Engine.apply engine e).Incremental.Engine.fallback with
            | None -> "cone"
            | Some reason when String.starts_with ~prefix:"dirty fraction" reason ->
              "dirty cone over threshold"
            | Some reason -> reason
          in
          Hashtbl.replace counts path (1 + Option.value ~default:0 (Hashtbl.find_opt counts path)))
        edits)
    sessions;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])

let metric name unit value =
  (name, Obs.Json.Obj [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit) ])

let metrics ~rounds ~gc0 ~gc1 ~deltas ~analyses ~edits:(applied, fallback) ~interp_calls
    ~sessions =
  let spans = Trace.all () in
  let ids = by_id spans in
  let kids = children spans in
  let r = float_of_int rounds in
  let per_round x = x /. r in
  let ms group = per_round (group_ms spans ids group) in
  let counter name = float_of_int (Option.value ~default:0 (List.assoc_opt name deltas)) in
  let prefixed prefix =
    List.fold_left
      (fun acc (name, v) -> if String.starts_with ~prefix name then acc +. float_of_int v else acc)
      0. deltas
  in
  let span_metric name key =
    sum (fun s -> float_of_int (Trace.metric s key)) (named name spans)
  in
  let over_analyses f =
    Hashtbl.fold (fun _ a acc -> acc +. float_of_int (f a)) analyses 0.
  in
  let child_ms (s : Trace.span) names =
    sum Trace.dur
      (List.filter (fun (c : Trace.span) -> List.mem c.Trace.name names) (kids s.Trace.id))
  in
  let lint_spans = named "lint" spans in
  let handle_spans = named "Serve.Server.handle_line" spans in
  let serve_self =
    sum
      (fun (s : Trace.span) ->
        Trace.dur s
        -. sum (fun (c : Trace.span) -> sum Trace.dur (kids c.Trace.id)) (kids s.Trace.id))
      handle_spans
  in
  let paths = edit_paths (List.map (fun (m0, es, _) -> (m0, es)) sessions) in
  prerr_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ( "edit_paths",
              Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) paths) );
          ]));
  let m = metric in
  [
    m "frontend.parse_ms" "ms" (ms [ "Frontend.Parser.parse"; "frontend.parse" ]);
    m "frontend.resolve_ms" "ms" (ms [ "Frontend.Sema.resolve_with_locs"; "frontend.resolve" ]);
    m "callgraph.build_ms" "ms" (ms [ "callgraph.call"; "callgraph.binding" ]);
    m "callgraph.call_edges" "count"
      (over_analyses (fun a -> Graphs.Digraph.n_edges a.A.call.Callgraph.Call.graph));
    m "callgraph.beta_edges" "count"
      (over_analyses (fun a -> Callgraph.Binding.n_edges a.A.binding));
    m "core.rmod_ms" "ms" (ms [ "rmod"; "ruse"; "rmod.region"; "ruse.region" ]);
    m "core.gmod_ms" "ms"
      (ms [ "gmod"; "guse"; "gmod.region"; "guse.region"; "gmod.by_levels" ]);
    m "core.alias_ms" "ms" (ms [ "alias" ]);
    m "core.alias_pairs" "count" (over_analyses (fun a -> Core.Alias.total_pairs a.A.alias));
    m "core.mustmod_ms" "ms" (ms [ "mustmod"; "mustmod.region" ]);
    m "core.mustmod_rounds" "count" (per_round (counter "mustmod.rounds"));
    m "core.provenance_ms" "ms" (sum (fun (_, _, final) -> provenance_ms final) sessions);
    m "bitvec.word_ops" "count" (per_round (counter "bitvec.word_ops"));
    m "bitvec.vector_ops" "count" (per_round (counter "bitvec.vector_ops"));
    m "ptsto.solve_ms" "ms" (ms [ "ptsto" ]);
    m "ptsto.size" "count"
      (over_analyses (fun a -> match a.A.ptsto with Some p -> Ptsto.size p | None -> 0));
    m "sections.run_ms" "ms" (ms [ "lint.sections" ]);
    m "sections.word_ops" "count" (per_round (span_metric "lint.sections" "bitvec.word_ops"));
    m "sections.verdicts" "count"
      (per_round (span_metric "lint" "lint.findings.loop_parallel"));
    m "dataflow.solve_ms" "ms" (ms [ "dataflow.solve" ]);
    m "dataflow.blocks" "count" (per_round (counter "dataflow.blocks"));
    m "dataflow.passes" "count"
      (per_round (counter "dataflow.live_passes" +. counter "dataflow.reach_passes"));
    m "lint.rules_ms" "ms"
      (per_round
         (sum (fun s -> Trace.dur s -. child_ms s [ "lint.sections"; "lint.dataflow" ]) lint_spans));
    m "lint.findings" "count" (per_round (prefixed "lint.findings."));
    m "incremental.apply_ms" "ms" (ms [ "incremental.resolve" ]);
    m "incremental.cone_share" "share"
      (if applied = 0 then 0. else float_of_int (applied - fallback) /. float_of_int applied);
    m "incremental.procs_resolved" "count" (per_round (counter "incremental.procs_resolved"));
    m "serve.protocol_ms" "ms" (ms [ "Serve.Protocol.parse"; "Serve.Protocol.encode" ]);
    m "serve.self_ms" "ms" (per_round serve_self);
    m "interp.run_ms" "ms" (group_ms spans ids [ "Interp.run" ]);
    m "interp.calls" "count" (float_of_int interp_calls);
    m "gc.major_collections" "count"
      (per_round (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)));
    m "gc.promoted_mb" "MB"
      (per_round
         ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) *. 8. /. 1048576.));
  ]
