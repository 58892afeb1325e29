(* Spans of the traced run, rebuilt from the program's own Obs trace
   events.

   Obs records a complete event (name, start, duration) each time a span
   activation closes. The traced run wraps every job in one "job" span;
   a job's events are the ones inside its interval, and a span's parent
   is the innermost event that contains it (jobs run one at a time,
   with jobs = 1, so intervals nest). Each span carries the request id
   of its job. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a job span *)
  req : int;
  start_us : float;  (** Obs trace clock *)
  dur_us : float;
  mutable child_us : float;  (** summed durations of the direct children *)
}

let next_id = ref 0

(* The spans of [events], which hold one "job" event per entry of
   [reqs], in order. *)
let of_events ~reqs (events : Obs.trace_event list) =
  let events =
    List.filter (fun e -> e.Obs.ev_kind = `Complete) events
    |> List.stable_sort (fun a b ->
           match compare a.Obs.ev_ts_us b.Obs.ev_ts_us with
           | 0 -> compare b.Obs.ev_dur_us a.Obs.ev_dur_us
           | c -> c)
  in
  let reqs = ref reqs and stack = ref [] in
  List.map
    (fun e ->
      let start = e.Obs.ev_ts_us in
      let rec open_at = function
        | s :: rest when s.start_us +. s.dur_us < start -> open_at rest
        | l -> l
      in
      stack := open_at !stack;
      let parent, req =
        match !stack with
        | p :: _ -> (Some p, p.req)
        | [] -> (
          match !reqs with
          | r :: rest ->
            reqs := rest;
            (None, r)
          | [] -> failwith "trace event outside every job")
      in
      incr next_id;
      let s =
        {
          id = !next_id;
          name = e.Obs.ev_name;
          parent = (match parent with Some p -> p.id | None -> 0);
          req;
          start_us = start;
          dur_us = e.Obs.ev_dur_us;
          child_us = 0.;
        }
      in
      Option.iter (fun p -> p.child_us <- p.child_us +. s.dur_us) parent;
      stack := s :: !stack;
      s)
    events

let self_us s = s.dur_us -. s.child_us

(* Per span name: number of spans, mean duration and mean self time,
   in ms. *)
let by_name spans =
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let n, t, st = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, t +. s.dur_us, st +. self_us s))
    spans;
  Hashtbl.fold
    (fun name (n, t, st) l -> (name, n, t /. 1000. /. float n, st /. 1000. /. float n) :: l)
    acc []
  |> List.sort compare

let to_json spans =
  let open Obs_json in
  List
    (List.map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("name", String s.name);
             ("parent", Int s.parent);
             ("req", Int s.req);
             ("start_us", Float s.start_us);
             ("end_us", Float (s.start_us +. s.dur_us));
             ("self_us", Float (self_us s));
           ])
       spans)
