(* Monotonic clock and the traced mode's span recorder.

   The benchmark's own code records one span around each public call it
   makes into a layer (name, start, end, parent, request id).  Inside
   such a call the program's existing [Obs] span tree is collected and
   grafted beneath it, so composite calls ([Core.Analyze.run] inside an
   edit, the lint engine's sections pass) show their phases without a
   span being added to the program.  Spans stay in memory until the
   run ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** [-1] for a root. *)
  name : string;
  start_ns : int;
  stop_ns : int;
  req : int;  (** Request id on a server request, [-1] elsewhere. *)
  metrics : (string * int) list;  (** [Obs.Metric] deltas across the span. *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let enable () =
  enabled := true;
  (* Obs spans read this clock; put them on the same monotonic time
     base as the benchmark's own spans. *)
  Obs.Clock.set (fun () -> float_of_int (now_ns ()) *. 1e-9)

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let rec graft ~parent ~req (s : Obs.Span.t) =
  let id = fresh () in
  let start_ns = int_of_float (s.Obs.Span.start *. 1e9) in
  spans :=
    {
      id;
      parent;
      name = s.Obs.Span.name;
      start_ns;
      stop_ns = start_ns + int_of_float (s.Obs.Span.elapsed *. 1e9);
      req;
      metrics = s.Obs.Span.metrics;
    }
    :: !spans;
  List.iter (graft ~parent:id ~req) s.Obs.Span.children

(* [call name f] runs [f]; when tracing, under a recorded span whose
   children are the program's own Obs spans. *)
let call ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let id = fresh () in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now_ns () in
    let finish metrics children =
      stack := List.tl !stack;
      spans :=
        { id; parent; name; start_ns = t0; stop_ns = now_ns (); req; metrics }
        :: !spans;
      List.iter (graft ~parent:id ~req) children
    in
    match Obs.Span.collect name f with
    | r, root ->
      finish root.Obs.Span.metrics root.Obs.Span.children;
      r
    | exception e ->
      finish [] [];
      raise e
  end

let all () = List.rev !spans

let dur s = float_of_int (s.stop_ns - s.start_ns) *. 1e-6

let metric s name = try List.assoc name s.metrics with Not_found -> 0

let to_json spans =
  let open Obs.Json in
  List
    (List.map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("name", String s.name);
             ("start_ns", Int s.start_ns);
             ("end_ns", Int s.stop_ns);
             ("req", Int s.req);
             ( "metrics",
               Obj
                 (List.filter_map
                    (fun (k, v) -> if v <> 0 then Some (k, Int v) else None)
                    s.metrics) );
           ])
       spans)
