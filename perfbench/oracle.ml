(* Oracles, computed apart from the timed code: chaotic iteration and
   reachability for the summary sets, the interpreter for soundness,
   and iterative §6 sections for the array kernels.  Each check returns
   [true] when the output it covers is correct. *)

module P = Ir.Prog
module A = Core.Analyze

let vectors_equal a b = Array.length a = Array.length b && Array.for_all2 Bitvec.equal a b

(* RMOD/RUSE, GMOD/GUSE against chaotic iteration, GMOD against the
   reachability closed form on flat programs, and MUSTMOD ⊆ GMOD. *)
let summaries (a : A.t) =
  let iter_gmod seed = Baseline.Iterative.gmod a.A.info a.A.call ~imod_plus:seed in
  Baseline.Iterative.rmod a.A.binding ~imod:a.A.imod = a.A.rmod.Core.Rmod.rmod
  && Baseline.Iterative.rmod a.A.binding ~imod:a.A.iuse = a.A.ruse.Core.Rmod.rmod
  && vectors_equal (iter_gmod a.A.imod_plus) a.A.gmod
  && vectors_equal (iter_gmod a.A.iuse_plus) a.A.guse
  && ((not (Baseline.Reach.applicable a.A.prog))
     || vectors_equal
          (Baseline.Reach.gmod a.A.info a.A.call ~imod_plus:a.A.imod_plus)
          a.A.gmod)
  && Core.Mustmod.check_subset a.A.mustmod ~gmod:a.A.gmod

(* MiniProc's scope rule for calls: a procedure may call one declared
   in its own scope chain.  Main is never called. *)
let callable prog ~caller ~callee =
  match (P.proc prog callee).P.parent with
  | Some parent -> P.is_ancestor prog ~anc:parent ~desc:caller
  | None -> false

(* Every call keeps the scope rule: an edit the server accepts must
   leave a program that can be written down. *)
let scoped prog =
  let ok = ref true in
  P.iter_sites prog (fun s ->
      if not (callable prog ~caller:s.P.caller ~callee:s.P.callee) then ok := false);
  !ok

(* LIVE-in at the callee's entry, bound back onto the site's actuals
   and closed under the caller's §5 aliases: what a call may read
   before writing, in the caller's names. *)
let live_at_sites (a : A.t) drv =
  let prog = a.A.prog in
  Array.init (P.n_sites prog) (fun sid ->
      let site = P.site prog sid in
      let sol = Dataflow.Driver.solution drv site.P.callee in
      let live =
        Dataflow.Live.live_in sol.Dataflow.Driver.live
          sol.Dataflow.Driver.cfg.Dataflow.Cfg.entry
      in
      let out = Bitvec.create (P.n_vars prog) in
      Bitvec.iter
        (fun v ->
          match (P.var prog v).P.kind with
          | P.Global -> Bitvec.set out v
          | P.Local _ -> ()
          | P.Formal { proc; index; mode } -> (
            if proc = site.P.callee && mode = P.By_ref then
              match site.P.args.(index) with
              | P.Arg_ref (Ir.Expr.Lvar x | Ir.Expr.Lindex (x, _) | Ir.Expr.Lderef (x, _))
                ->
                Bitvec.set out x
              | P.Arg_value _ -> ()))
        live;
      Core.Alias.close a.A.alias ~proc:site.P.caller out)

let interp_calls = ref 0

(* One interpreter run checks two things: observed MOD/USE ⊆ predicted
   MOD/USE at every site (first component), and, where [live] is given,
   observed read-before-write ⊆ predicted LIVE at every site whose
   executions all completed without a skipped call, since a skipped
   call could hide the write that kills a read (second component). *)
let interp ?live (a : A.t) =
  let o =
    Trace.call "Interp.run" (fun () -> Interp.run ~fuel:20_000 ~max_depth:256 a.A.prog)
  in
  Array.iter (fun c -> interp_calls := !interp_calls + c) o.Interp.calls_executed;
  let ok = ref true and live_ok = ref true in
  P.iter_sites a.A.prog (fun s ->
      let sid = s.P.sid in
      if
        not
          (Bitvec.subset (Interp.observed_mod o sid) (A.mod_of_site a sid)
          && Bitvec.subset (Interp.observed_use o sid) (A.use_of_site a sid))
      then ok := false;
      match live with
      | Some live
        when o.Interp.calls_executed.(sid) > 0
             && o.Interp.must_runs.(sid) = o.Interp.calls_executed.(sid) ->
        if not (Bitvec.subset (Interp.observed_live o sid) live.(sid)) then live_ok := false
      | _ -> ());
  (!ok, !live_ok)

(* §6: the one-pass sectioned GMOD/GUSE equal chaotic iteration. *)
let sections prog =
  let module S = Sections.Analyze_sections in
  let t = S.run prog in
  let iter seed = Sections.Gmod_sections.solve_iterative t.S.info t.S.call ~seed in
  Array.for_all2 Sections.Secmap.equal t.S.gmod (iter t.S.imod_plus)
  && Array.for_all2 Sections.Secmap.equal t.S.guse (iter t.S.iuse_plus)
