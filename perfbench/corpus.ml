(* Benchmark inputs: seeded program sources and scripted IDE sessions.

   Every program is handed to the benchmark as source text, because
   every timed operation starts from source text.  Generated programs
   are printed with [Ir.Pp]; pointer programs are written as text that
   parses (a dereference actual needs "( *p)", which the printer does
   not emit). *)

module P = Ir.Prog
module Json = Obs.Json

type program = { name : string; source : string }

let printed name prog = { name; source = Ir.Pp.to_string prog }

(* The [sidefx gen --globals 40] shape: flat, scalar, 20% recursion. *)
let scalar ~seed ~n =
  let rng = Random.State.make [| seed; n; 0x5e |] in
  printed
    (Printf.sprintf "scalar%d" n)
    (Workload.Gen.generate rng
       { Workload.Gen.default with n_procs = n; n_globals = 40 })

let dag ~seed ~n = printed (Printf.sprintf "dag%d" n) (Workload.Families.dag_style ~seed ~n)

let fortran ~seed ~n =
  printed (Printf.sprintf "fortran%d" n) (Workload.Families.fortran_style ~seed ~n)

let pascal ~seed ~n ~depth =
  printed
    (Printf.sprintf "pascal%d" n)
    (Workload.Families.pascal_style ~seed ~n ~depth)

let kernels ~seed ~n =
  { name = Printf.sprintf "kernels%d" n; source = Workload.Arrays.source ~seed ~n_kernels:n }

(* A [dag_style] program whose main block also aims one pointer at
   globals and passes it dereferenced, by reference, to every procedure
   whose first formal is by reference (at most [calls] of them). *)
let pointers ~seed ~n ~calls =
  let prog = Workload.Families.dag_style ~seed ~n in
  let text = Ir.Pp.to_string prog in
  let global i = Printf.sprintf "g%d" i in
  let targets = ref [] in
  P.iter_procs prog (fun pr ->
      if
        pr.P.level = 1
        && Array.length pr.P.formals > 0
        && P.formal_mode prog pr 0 = P.By_ref
      then targets := pr :: !targets);
  let targets = List.filteri (fun i _ -> i < calls) (List.rev !targets) in
  if targets = [] then failwith "pointers: no procedure takes a by-reference formal";
  let call k pr =
    let args =
      Array.to_list
        (Array.mapi
           (fun i _ ->
             if i = 0 then " *q"
             else if P.formal_mode prog pr i = P.By_ref then global (k + i)
             else string_of_int i)
           pr.P.formals)
    in
    Printf.sprintf "  q := &%s;\n  call %s(%s);\n" (global k) pr.P.pname
      (String.concat ", " args)
  in
  let calls = String.concat "" (List.mapi call targets) in
  let first_nl = String.index text '\n' in
  let second_nl = String.index_from text (first_nl + 1) '\n' in
  let main_end = String.length text - String.length "end.\n" in
  assert (String.sub text main_end 5 = "end.\n");
  {
    name = Printf.sprintf "ptr%d" n;
    source =
      String.sub text 0 (second_nl + 1)
      ^ "var q : ptr of int;\n"
      ^ String.sub text (second_nl + 1) (main_end - second_nl - 1)
      ^ calls ^ "end.\n";
  }

let compile (p : program) =
  match Frontend.Sema.compile ~file:p.name p.source with
  | Ok prog -> prog
  | Error errs ->
    failwith
      (Format.asprintf "%s does not compile: %a" p.name
         (Format.pp_print_list Frontend.Sema.pp_error)
         errs)

(* --- sessions --- *)

type session = {
  program : program;
  edits : int;  (** Edit requests, lint-off unless listed in [lint_edits]. *)
  queries : int;  (** Fact queries after each edit. *)
  lint_edits : int list;  (** 1-based edit numbers sent with lint on. *)
  lint_deltas : int list;  (** Edit numbers followed by a lint-delta query. *)
  unscoped : bool;
      (** The known-fault session: its one edit is a fixed call to a
          procedure outside the caller's scope chain (see [unscoped_edit]). *)
}

(* Request classes: each latency metric reads exactly one of them. *)
type cls = Edit | Lint_edit | Lint_delta | Query | Source | Reload | Unscoped_edit

type step = {
  cls : cls;
  line : string;  (** The request line; for [Reload], filled in at run time. *)
}

let fact_query rand prog =
  let pick arr = arr.(Random.State.int rand (Array.length arr)) in
  let procs = ref [] and formals = ref [] in
  P.iter_procs prog (fun pr -> procs := pr.P.pname :: !procs);
  P.iter_vars prog (fun v ->
      match v.P.kind with
      | P.Formal { proc; mode = P.By_ref; _ } ->
        formals := ((P.proc prog proc).P.pname, v.P.vname) :: !formals
      | _ -> ());
  let procs = Array.of_list !procs and formals = Array.of_list !formals in
  let proc () = pick procs in
  let site () = Random.State.int rand (P.n_sites prog) in
  match Random.State.int rand 9 with
  | 0 -> Serve.Protocol.Gmod { proc = proc () }
  | 1 -> Serve.Protocol.Guse { proc = proc () }
  | 2 when formals <> [||] ->
    let proc, var = pick formals in
    Serve.Protocol.Rmod { proc; var }
  | 3 when formals <> [||] ->
    let proc, var = pick formals in
    Serve.Protocol.Ruse { proc; var }
  | 4 -> Serve.Protocol.Must { proc = proc () }
  | 5 -> Serve.Protocol.Alias { proc = proc () }
  | 6 when P.n_sites prog > 0 -> Serve.Protocol.Mod_site { site = site () }
  | 7 when P.n_sites prog > 0 -> Serve.Protocol.Use_site { site = site () }
  | _ -> Serve.Protocol.Purity { proc = proc () }

(* Removing a dereference-actual call would make the session's final
   source print without "(*", so whether its reload fails would depend
   on the seed; such edits are redrawn. *)
let removes_deref_actual prog = function
  | Incremental.Edit.Remove_call { sid } ->
    Array.exists
      (function P.Arg_ref (Ir.Expr.Lderef _) -> true | _ -> false)
      (P.site prog sid).P.args
  | _ -> false

(* [Workload.Edits] draws callees from every procedure, but on a nested
   program a call to a procedure declared outside the caller's scope
   chain cannot be written in MiniProc.  The server accepts such an edit
   all the same (a known fault), and whether a seeded script holds one
   would depend on the seed, so in seeded scripts they are redrawn; the
   known-fault session sends one fixed such edit instead. *)
let out_of_scope prog = function
  | Incremental.Edit.Add_call { caller; callee; _ } -> not (Oracle.callable prog ~caller ~callee)
  | Incremental.Edit.Retarget_call { sid; callee } ->
    not (Oracle.callable prog ~caller:(P.site prog sid).P.caller ~callee)
  | _ -> false

let rec draw_edit rand mirror attempts =
  if attempts = 0 then failwith "session: no renderable edit after 200 draws";
  match Workload.Edits.gen ~rand ~steps:1 mirror with
  | [ (edit, prog') ]
    when not (removes_deref_actual mirror edit || out_of_scope mirror edit) -> (
    match Incremental.Script.render mirror edit with
    | Some line -> (edit, line, prog')
    | None -> draw_edit rand mirror (attempts - 1))
  | _ | (exception _) -> draw_edit rand mirror (attempts - 1)

(* The known-fault session's edit: the first out-of-scope add-call that
   [Workload.Edits] draws from a fixed seed, the same on every run. *)
let unscoped_edit mirror =
  let rand = Random.State.make [| 0x5c0 |] in
  let rec draw attempts =
    if attempts = 0 then failwith "session: no out-of-scope add-call after 1000 draws";
    match Workload.Edits.gen ~rand ~steps:1 mirror with
    | [ ((Incremental.Edit.Add_call _ as edit), prog') ] when out_of_scope mirror edit -> (
      match Incremental.Script.render mirror edit with
      | Some line -> (edit, line, prog')
      | None -> draw (attempts - 1))
    | _ | (exception _) -> draw (attempts - 1)
  in
  draw 1000

(* The request script of one session against its compiled mirror, the
   edits it sends, and the mirror after the last of them.  Request ids
   are fixed by position, so a replayed script yields byte-identical
   responses. *)
let script ~seed ~client (s : session) mirror0 =
  let rand = Random.State.make [| seed; client; 0x5e55 |] in
  let program = s.program.name in
  let n = ref 0 in
  let steps = ref [] in
  let push cls req =
    incr n;
    let id = Json.Int ((client * 100_000) + !n) in
    steps := { cls; line = Serve.Protocol.to_line ~id req } :: !steps
  in
  let query q = Serve.Protocol.Query { program; session = ""; query = q } in
  let mirror = ref mirror0 in
  let edits = ref [] in
  for i = 1 to s.edits do
    let edit, line, prog' =
      if s.unscoped then unscoped_edit !mirror else draw_edit rand !mirror 200
    in
    edits := edit :: !edits;
    let lint = List.mem i s.lint_edits in
    push
      (if s.unscoped then Unscoped_edit else if lint then Lint_edit else Edit)
      (Serve.Protocol.Edit { program; session = ""; script = line; lint });
    mirror := prog';
    for _ = 1 to s.queries do
      push Query (query (fact_query rand !mirror))
    done;
    if List.mem i s.lint_deltas then push Lint_delta (query Serve.Protocol.Lint_delta)
  done;
  push Source (query Serve.Protocol.Source);
  incr n;
  steps := { cls = Reload; line = "" } :: !steps;
  (Array.of_list (List.rev !steps), List.rev !edits, !mirror)

let reload_line ~client ~index ~program source =
  Serve.Protocol.to_line
    ~id:(Json.Int ((client * 100_000) + index + 1))
    (Serve.Protocol.Load { program = program ^ "-reopen"; source })
