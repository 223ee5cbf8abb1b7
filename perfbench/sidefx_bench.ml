(* The sidefx benchmark: one workload, in one process, on one domain.

     sidefx_bench --workload NAME --seed N --seconds S --trace 0|1

   A run sets the workload up several times (the median is [setup_s]),
   then repeats whole rounds of the same operations until [S] seconds
   have passed (at least three rounds), then checks every output
   against the oracles in [Oracle].  A round is: a fixed number of
   [analyze] and [dataflow] passes over the batch corpus and of [lint]
   passes over the lint corpus, then the scripted IDE sessions, each a
   closed loop through [Serve.Server.handle_line].  Every operation
   starts from source text; times come from a monotonic nanosecond
   clock.

   The last line of standard output is the result: operations
   attempted and failed, and the end-to-end metrics ([--trace 0]) or
   the per-layer metrics of a traced run ([--trace 1]). *)

module Json = Obs.Json
module P = Ir.Prog
module A = Core.Analyze
module C = Corpus

type spec = {
  batch : C.program list;  (** [analyze_s] and [dataflow_s] passes. *)
  lint : C.program list;  (** [lint_s] passes. *)
  passes : int * int * int;
      (** [analyze], [dataflow] and [lint] passes per round: short passes
          are repeated so that each run has enough of them for a steady
          median. *)
  sessions : C.session list;
}

let session ?(lint_edits = []) ?(lint_deltas = []) ~edits ~queries program =
  { C.program; edits; queries; lint_edits; lint_deltas; unscoped = false }

(* One out-of-scope add-call, then [query source] and the reload: the
   same requests on every run, each round. *)
let unscoped_session program =
  { (session ~edits:1 ~queries:0 program) with C.unscoped = true }

(* Sizes and mix of each workload; README.md gives the reasons.  The
   programs are drawn once, with a fixed generator seed: a program's
   cost varies with its random call and nesting structure far more than
   between two runs of the same code, so drawing them from the run's
   seed would make the spread measure the draw.  The run's seed draws
   the session scripts (edits and queries). *)
let corpus_seed = 1

let spec_of workload =
  let many f ns = List.map (fun n -> f ~seed:corpus_seed ~n) ns in
  let pointers ~seed ~n = C.pointers ~seed ~n ~calls:8 in
  match workload with
  | "lint_scalar" ->
    let scalar = many C.scalar [ 100; 125 ] in
    {
      batch = scalar @ many pointers [ 100 ];
      lint = scalar;
      passes = (5, 3, 1);
      sessions =
        List.map
          (session ~edits:12 ~queries:8 ~lint_deltas:[ 1; 2; 3 ])
          (many C.scalar [ 50; 51; 52 ]);
    }
  | "batch_scale" ->
    {
      batch =
        many C.scalar [ 1000 ]
        @ [ C.pascal ~seed:corpus_seed ~n:300 ~depth:3 ]
        @ many pointers [ 100 ];
      lint = many C.kernels [ 400 ];
      passes = (2, 1, 3);
      sessions =
        List.map
          (session ~edits:15 ~queries:8 ~lint_deltas:[ 1; 2; 3 ])
          (many C.kernels [ 100; 101; 102 ]);
    }
  | "serve_session" ->
    let lint = many C.dag [ 60; 61 ] in
    let pascal = C.pascal ~seed:corpus_seed ~n:120 ~depth:2 in
    let sessions =
      [
        session ~edits:8 ~queries:8 ~lint_edits:[ 1 ] ~lint_deltas:[ 2; 3 ] (List.nth lint 0);
        session ~edits:8 ~queries:8 ~lint_deltas:[ 1; 2; 3 ] (List.nth lint 1);
      ]
      @ List.map (session ~edits:16 ~queries:8)
          (many C.dag [ 120 ] @ many C.fortran [ 100; 120 ])
      @ List.map (session ~edits:10 ~queries:8)
          (pascal :: many pointers [ 100; 120 ])
    in
    {
      batch = List.map (fun s -> s.C.program) sessions;
      lint;
      passes = (8, 4, 4);
      sessions = sessions @ [ unscoped_session pascal ];
    }
  | _ -> invalid_arg ("unknown workload " ^ workload)

(* --- timed operations: source text to the command's result --- *)

let compile (p : C.program) =
  let ast =
    match
      Trace.call "Frontend.Parser.parse" (fun () ->
          Frontend.Parser.parse ~file:p.C.name p.C.source)
    with
    | Ok ast -> ast
    | Error (_, msg) -> failwith (p.C.name ^ ": " ^ msg)
  in
  match
    Trace.call "Frontend.Sema.resolve_with_locs" (fun () ->
        Frontend.Sema.resolve_with_locs ast)
  with
  | Ok r -> r
  | Error _ -> failwith (p.C.name ^ ": does not resolve")

let analyze prog = Trace.call "Core.Analyze.run" (fun () -> A.run prog)

let op_analyze p = analyze (fst (compile p))

let op_dataflow p =
  let prog, locs = compile p in
  let a = analyze prog in
  let drv = Dataflow.Driver.create ~locs a in
  Trace.call "Dataflow.Driver.solve_all" (fun () -> Dataflow.Driver.solve_all drv);
  (a, drv)

let op_lint p =
  let prog, locs = compile p in
  let a = analyze prog in
  let findings = Trace.call "Lint.Engine.run" (fun () -> Lint.Engine.run ~locs a) in
  let report =
    Json.to_string
      (Lint.Engine.report_json ~program:prog.P.name ~rules:Lint.Rule.all findings)
  in
  (a, report)

(* --- output digests, for comparing each round with the first --- *)

let lists vs = Array.to_list (Array.map Bitvec.to_list vs)

let digest_analysis (a : A.t) =
  Digest.string
    (Marshal.to_string
       ( lists a.A.gmod,
         lists a.A.guse,
         a.A.rmod.Core.Rmod.rmod,
         a.A.ruse.Core.Rmod.rmod,
         List.init (P.n_procs a.A.prog) (fun p -> Bitvec.to_list (A.mustmod_of a p)) )
       [])

let digest_live live = Digest.string (Marshal.to_string (lists live) [])

(* --- set-up --- *)

type session_run = {
  s : C.session;
  client : int;
  steps : C.step array;
  mirror0 : P.t;  (** The client's mirror of the loaded source. *)
  edits : Incremental.Edit.t list;
  mirror : P.t;  (** The client's mirror after the whole script. *)
}

type state = { spec : spec; server : Serve.Server.t; runs : session_run array }

let member path j =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let response_ok line =
  match Json.parse line with
  | Ok j -> member [ "ok" ] j = Some (Json.Bool true)
  | Error _ -> false

let must_succeed what line =
  if not (response_ok line) then failwith (what ^ " failed: " ^ line)

let setup workload seed =
  let spec = spec_of workload in
  (* Warm-up: every batch command once on a small program, so the first
     timed pass does not pay for first use of the code and heap. *)
  let warm = C.scalar ~seed:corpus_seed ~n:40 in
  ignore (op_dataflow warm);
  ignore (op_lint warm);
  let server = Serve.Server.create () in
  let admin line = Serve.Server.handle_line server ~client:0 line in
  let loaded = Hashtbl.create 16 in
  let runs =
    List.mapi
      (fun i (s : C.session) ->
        let client = i + 1 in
        let program = s.C.program.C.name in
        (* Clients mirror the compiled source, as an editor does. *)
        let mirror0 = C.compile s.C.program in
        if not (Hashtbl.mem loaded program) then begin
          Hashtbl.replace loaded program ();
          must_succeed "load"
            (admin
               (Serve.Protocol.to_line
                  (Serve.Protocol.Load { program; source = s.C.program.C.source })))
        end;
        let query q =
          admin
            (Serve.Protocol.to_line
               (Serve.Protocol.Query { program; session = ""; query = q }))
        in
        let main = (P.proc mirror0 mirror0.P.main).P.pname in
        must_succeed "base analysis" (query (Serve.Protocol.Gmod { proc = main }));
        if s.C.lint_edits <> [] || s.C.lint_deltas <> [] then
          must_succeed "base lint" (query Serve.Protocol.Lint_delta);
        let steps, edits, mirror = C.script ~seed ~client s mirror0 in
        { s; client; steps; mirror0; edits; mirror })
      spec.sessions
  in
  { spec; server; runs = Array.of_list runs }

(* --- rounds --- *)

let now = Trace.now_ns

(* An operation succeeded, returned an error, or returned an output
   that differs from its first output. *)
type status = Done | Errored | Differs

type round = {
  analyze_ns : int list;  (** One per pass. *)
  dataflow_ns : int list;
  lint_ns : int list;
  session_ns : int;
  requests : int;
  latencies : (C.cls * int) list;
  ops : (string * status) list;  (** Operation key and outcome. *)
}

(* The first output of each operation; every later repetition must
   reproduce it. *)
let reference : (string, string) Hashtbl.t = Hashtbl.create 256

let compare_first key digest =
  if not (Hashtbl.mem reference key) then Hashtbl.replace reference key digest;
  if Hashtbl.find reference key = digest then Done else Differs

(* Round-one outputs the oracles read. *)
let analyses : (string, A.t) Hashtbl.t = Hashtbl.create 16
let lives : (string, Bitvec.t array) Hashtbl.t = Hashtbl.create 16
let responses : (string, string) Hashtbl.t = Hashtbl.create 1024

(* Edit responses: edits applied and edits that fell back. *)
let edits_applied = ref 0
let edits_fallback = ref 0

let req_key client index = Printf.sprintf "req:%d:%d" client index

(* One pass: [run] each program (timed), then [digest] its output
   (untimed).  Returns the pass time and the operations' outcomes. *)
let batch_pass ~kind progs run digest =
  let ops = ref [] and total = ref 0 in
  List.iter
    (fun (p : C.program) ->
      let key = kind ^ ":" ^ p.C.name in
      let t0 = now () in
      let result = try Some (run p) with _ -> None in
      total := !total + (now () - t0);
      let status =
        match result with
        | None -> Errored
        | Some out -> compare_first key (digest p out)
      in
      ops := (key, status) :: !ops)
    progs;
  (!total, List.rev !ops)

let batch_passes ~kind ~passes progs run digest =
  let times, ops =
    List.split (List.init passes (fun _ -> batch_pass ~kind progs run digest))
  in
  (times, List.concat ops)

let run_round st ~round =
  let keep name a = if round = 1 then Hashtbl.replace analyses name a in
  let n_analyze, n_dataflow, n_lint = st.spec.passes in
  (* Each phase starts from a compacted heap holding no session state,
     as a fresh process would: otherwise the live heap left by the
     previous round's sessions, which depends on the seed's scripts,
     changes the collector's work inside the timed passes. *)
  Array.iter (fun r -> Serve.Server.drop_client st.server r.client) st.runs;
  Gc.compact ();
  let analyze_ns, ops_a =
    batch_passes ~kind:"analyze" ~passes:n_analyze st.spec.batch op_analyze
      (fun p a ->
        keep p.C.name a;
        digest_analysis a)
  in
  let dataflow_ns, ops_d =
    batch_passes ~kind:"dataflow" ~passes:n_dataflow st.spec.batch op_dataflow
      (fun p (a, drv) ->
        let live = Oracle.live_at_sites a drv in
        if round = 1 then Hashtbl.replace lives p.C.name live;
        digest_live live)
  in
  let lint_ns, ops_l =
    batch_passes ~kind:"lint" ~passes:n_lint st.spec.lint op_lint
      (fun p (a, report) ->
        keep p.C.name a;
        Digest.string report)
  in
  (* Sessions: a fresh session per client, then the clients take turns,
     one request outstanding at a time. *)
  Gc.compact ();
  let latencies = ref [] and ops = ref [] and requests = ref 0 in
  let sources = Array.make (Array.length st.runs) "" in
  let pos = Array.make (Array.length st.runs) 0 in
  let t_sessions = now () in
  let live = ref true in
  while !live do
    live := false;
    Array.iteri
      (fun k r ->
        let i = pos.(k) in
        if i < Array.length r.steps then begin
          live := true;
          pos.(k) <- i + 1;
          let step = r.steps.(i) in
          let line =
            match step.C.cls with
            | C.Reload ->
              C.reload_line ~client:r.client ~index:i
                ~program:r.s.C.program.C.name sources.(k)
            | _ -> step.C.line
          in
          let req = (r.client * 100_000) + i + 1 in
          let t0 = now () in
          let resp =
            Trace.call ~req "Serve.Server.handle_line" (fun () ->
                Serve.Server.handle_line st.server ~client:r.client line)
          in
          let dt = now () - t0 in
          incr requests;
          latencies := (step.C.cls, dt) :: !latencies;
          let parsed = Json.parse resp in
          if !Trace.enabled then begin
            (* The wire codec, timed on its own: parse the request,
               encode the response. *)
            ignore
              (Trace.call ~req "Serve.Protocol.parse" (fun () ->
                   Serve.Protocol.parse line));
            match parsed with
            | Ok j ->
              ignore (Trace.call ~req "Serve.Protocol.encode" (fun () -> Json.to_string j))
            | Error _ -> ()
          end;
          (match (step.C.cls, parsed) with
          | C.Source, Ok j -> (
            match member [ "result"; "source" ] j with
            | Some (Json.String src) -> sources.(k) <- src
            | _ -> ())
          | (C.Edit | C.Lint_edit), Ok j when round = 1 -> (
            match (member [ "result"; "edits" ] j, member [ "result"; "fallbacks" ] j) with
            | Some (Json.List es), Some (Json.Int f) ->
              edits_applied := !edits_applied + List.length es;
              edits_fallback := !edits_fallback + f
            | _ -> ())
          | _ -> ());
          let key = req_key r.client i in
          if round = 1 then Hashtbl.replace responses key resp;
          let status =
            match compare_first key resp with
            | Differs -> Differs
            | _ when not (response_ok resp) -> Errored
            | s -> s
          in
          ops := (key, status) :: !ops
        end)
      st.runs
  done;
  {
    analyze_ns;
    dataflow_ns;
    lint_ns;
    session_ns = now () - t_sessions;
    requests = !requests;
    latencies = !latencies;
    ops = ops_a @ ops_d @ ops_l @ List.rev !ops;
  }

(* --- oracles --- *)

(* Operation keys whose round-one output an oracle rejected, each mapped
   to whether the rejection is the known fault the out-of-scope session
   shows. *)
let oracle_failures st =
  let bad = Hashtbl.create 16 in
  let fail ?(known = false) key = Hashtbl.replace bad key known in
  let programs = List.sort_uniq compare (List.map (fun (p : C.program) -> p.C.name) (st.spec.batch @ st.spec.lint)) in
  List.iter
    (fun name ->
      match Hashtbl.find_opt analyses name with
      | None -> ()
      | Some a ->
        let sound, live_sound = Oracle.interp ?live:(Hashtbl.find_opt lives name) a in
        if not (Oracle.summaries a && sound) then begin
          fail ("analyze:" ^ name);
          fail ("lint:" ^ name)
        end;
        if not live_sound then fail ("dataflow:" ^ name);
        if
          List.exists (fun (p : C.program) -> p.C.name = name) st.spec.lint
          && String.starts_with ~prefix:"kernels" name
          && not (Oracle.sections a.A.prog)
        then fail ("lint:" ^ name))
    programs;
  (* Sessions: the mirror pin, then every GMOD and MOD(s) answer of the
     last round's sessions against a from-scratch analysis of the
     client's mirror whose GMOD equals chaotic iteration. *)
  Array.iter
    (fun r ->
      let m = r.mirror in
      let a = A.run m in
      let ask q =
        let line =
          Serve.Protocol.to_line
            (Serve.Protocol.Query { program = r.s.C.program.C.name; session = ""; query = q })
        in
        match Json.parse (Serve.Server.handle_line st.server ~client:r.client line) with
        | Ok j -> (
          match member [ "result"; "vars" ] j with
          | Some (Json.List vs) ->
            Some (List.map (function Json.String s -> s | _ -> "") vs)
          | _ -> None)
        | Error _ -> None
      in
      let ok = ref (Oracle.scoped m && Oracle.summaries a) in
      P.iter_procs m (fun pr ->
          if ask (Serve.Protocol.Gmod { proc = pr.P.pname })
             <> Some (Serve.Delta.set_names m a.A.gmod.(pr.P.pid))
          then ok := false);
      P.iter_sites m (fun s ->
          if ask (Serve.Protocol.Mod_site { site = s.P.sid })
             <> Some (Serve.Delta.set_names m (A.mod_of_site a s.P.sid))
          then ok := false);
      let last_edit = ref 0 in
      Array.iteri
        (fun i (step : C.step) ->
          match step.C.cls with
          | C.Edit | C.Lint_edit -> last_edit := i
          | C.Source -> (
            match Json.parse (Hashtbl.find responses (req_key r.client i)) with
            | Ok j
              when member [ "result"; "source" ] j = Some (Json.String (Ir.Pp.to_string m)) ->
              ()
            | _ -> fail ~known:r.s.C.unscoped (req_key r.client i))
          | _ -> ())
        r.steps;
      if not !ok then fail ~known:r.s.C.unscoped (req_key r.client !last_edit))
    st.runs;
  bad

(* --- statistics --- *)

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = percentile (sorted xs) 0.5

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.

let ms ns = float_of_int ns *. 1e-6

let end_to_end ~setup_ns ~peak_rss (rounds : round list) =
  let med f = ms (median (List.concat_map f rounds)) in
  let lat cls =
    sorted
      (List.concat_map
         (fun r -> List.filter_map (fun (c, ns) -> if c = cls then Some ns else None) r.latencies)
         rounds)
  in
  let edits = lat C.Edit and queries = lat C.Query in
  let lints = sorted (Array.to_list (lat C.Lint_edit) @ Array.to_list (lat C.Lint_delta)) in
  let requests = List.fold_left (fun acc r -> acc + r.requests) 0 rounds in
  let session_ns = List.fold_left (fun acc r -> acc + r.session_ns) 0 rounds in
  [
    Layers.metric "setup_s" "s" (ms (median setup_ns) *. 1e-3);
    Layers.metric "lint_s" "s" (med (fun r -> r.lint_ns) *. 1e-3);
    Layers.metric "analyze_s" "s" (med (fun r -> r.analyze_ns) *. 1e-3);
    Layers.metric "dataflow_s" "s" (med (fun r -> r.dataflow_ns) *. 1e-3);
    Layers.metric "edit_p50_ms" "ms" (ms (percentile edits 0.5));
    Layers.metric "edit_p90_ms" "ms" (ms (percentile edits 0.9));
    Layers.metric "query_p50_ms" "ms" (ms (percentile queries 0.5));
    Layers.metric "query_p90_ms" "ms" (ms (percentile queries 0.9));
    Layers.metric "lint_delta_p50_ms" "ms" (ms (percentile lints 0.5));
    Layers.metric "req_per_s" "1/s" (float_of_int requests /. (float_of_int session_ns *. 1e-9));
    Layers.metric "peak_rss_mb" "MB" peak_rss;
  ]

(* --- main --- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0 and trace = ref 0 in
  let usage = "sidefx_bench --workload NAME --seed N --seconds S --trace 0|1" in
  let spec_args =
    [
      ("--workload", Arg.Set_string workload, "NAME lint_scalar | batch_scale | serve_session");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) metrics");
    ]
  in
  Arg.parse spec_args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !workload = "" || !seconds <= 0 then begin
    prerr_endline ("usage: " ^ usage);
    exit 2
  end;
  let traced = !trace = 1 in
  (* Set-up is timed several times; the last state is the one measured.
     An earlier state is collected before the next set-up, so that it
     does not count in the peak resident set. *)
  let setups = if traced then 1 else 3 in
  let setup_ns = ref [] and st = ref None in
  for _ = 1 to setups do
    st := None;
    Gc.compact ();
    let t0 = now () in
    let s = setup !workload !seed in
    setup_ns := (now () - t0) :: !setup_ns;
    st := Some s
  done;
  let st = Option.get !st in
  if traced then Trace.enable ();
  let gc0 = Gc.quick_stat () and ops0 = Obs.Metric.snapshot () in
  let t_start = now () in
  let rounds = ref [] in
  let n = ref 0 in
  while !n < 3 || now () - t_start < !seconds * 1_000_000_000 do
    incr n;
    rounds := run_round st ~round:!n :: !rounds
  done;
  let rounds = List.rev !rounds in
  let gc1 = Gc.quick_stat () and deltas = Obs.Metric.delta ~since:ops0 in
  (* The peak covers set-up and the rounds, not the oracle checks. *)
  let peak_rss = peak_rss_mb () in
  let t_oracle = now () in
  let bad = oracle_failures st in
  Printf.eprintf "rounds: %d, timed %.1f s, oracles %.1f s\n%!" (List.length rounds)
    (float_of_int (t_oracle - t_start) *. 1e-9) (float_of_int (now () - t_oracle) *. 1e-9);
  Trace.enabled := false;
  let count p = List.fold_left (fun acc r -> acc + List.length (List.filter p r.ops)) 0 rounds in
  let attempted = count (fun _ -> true) in
  let failed = count (fun (key, status) -> status <> Done || Hashtbl.mem bad key) in
  (* A wrong output makes the run incorrect; an operation that returns
     an error (the known reload fault), or whose output the out-of-scope
     fault makes wrong, is a counted failure. *)
  let correct =
    Hashtbl.fold (fun _ known acc -> acc && known) bad true
    && count (fun (_, status) -> status = Differs) = 0
  in
  (* Name the failing operations of the first round on standard error. *)
  List.iter
    (fun (key, status) ->
      if status <> Done || Hashtbl.mem bad key then
        prerr_endline
          (Printf.sprintf "failed: %s (%s)" key
             (match status with
             | Done -> "oracle"
             | Errored -> (
               match Hashtbl.find_opt responses key with
               | Some resp -> "error: " ^ resp
               | None -> "error")
             | Differs -> "differs from round 1")))
    (List.hd rounds).ops;
  let e2e = end_to_end ~setup_ns:!setup_ns ~peak_rss rounds in
  let metrics =
    if traced then
      Layers.metrics ~rounds:(List.length rounds) ~gc0 ~gc1 ~deltas ~analyses
        ~edits:(!edits_applied, !edits_fallback) ~interp_calls:!Oracle.interp_calls
        ~sessions:
          (List.filter_map
             (fun r -> if r.s.C.unscoped then None else Some (r.mirror0, r.edits, r.mirror))
             (Array.to_list st.runs))
    else e2e
  in
  if traced then begin
    let dir = Filename.concat ".bench_build" "traces" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out (Filename.concat dir (Printf.sprintf "%s-%d.json" !workload !seed)) in
    output_string oc (Json.to_string (Trace.to_json (Trace.all ())));
    close_out oc;
    prerr_endline (Json.to_string (Json.Obj e2e))
  end;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))
