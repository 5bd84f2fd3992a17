type arg = Int of int | Float of float | Str of string

type ph = B | E | X | M

type event = {
  ph : ph;
  name : string;
  cat : string;
  pid : int;
  track : string;
  ts : float;
  dur : float;  (* X events only *)
  args : (string * arg) list;
}

let wall_pid = 0
let virtual_pid = 1

(* ------------------------- collector state ------------------------- *)

let lock = Mutex.create ()
let enabled_flag = Atomic.make false
let events : event list ref = ref []  (* newest first *)
let epoch = ref 0.0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enabled () = Atomic.get enabled_flag

let enable () =
  epoch := Unix.gettimeofday ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false
let clear () = with_lock (fun () -> events := [])
let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

let record evs =
  with_lock (fun () -> events := List.rev_append evs !events)

(* one wall track per domain, so pass spans inside a Pool sweep nest on
   the domain that ran them instead of interleaving on one track *)
let wall_track () = Printf.sprintf "wall-d%d" (Domain.self () :> int)

let with_span ?(cat = "pass") ?args name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      let a = match args with None -> [] | Some g -> g () in
      record
        [ { ph = X; name; cat; pid = wall_pid; track = wall_track ();
            ts = t0; dur = t1 -. t0; args = a } ]
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let virtual_span ?(cat = "sim") ~track ~name ~start ~finish ?(args = []) () =
  if enabled () then
    record
      [ { ph = B; name; cat; pid = virtual_pid; track; ts = start; dur = 0.0;
          args };
        { ph = E; name; cat; pid = virtual_pid; track; ts = finish; dur = 0.0;
          args = [] } ]

(* --------------------------- serialization ------------------------- *)

(* summary text: integers print without a fraction, everything else
   with four digits *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4f" f

let arg_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.String s

let ph_str = function B -> "B" | E -> "E" | X -> "X" | M -> "M"

let event_json tid ev =
  let dur = match ev.ph with X -> [ ("dur", Json.Float ev.dur) ] | _ -> [] in
  Json.Obj
    ([ ("ph", Json.String (ph_str ev.ph)); ("name", String ev.name);
       ("cat", String ev.cat); ("pid", Int ev.pid); ("tid", Int tid);
       ("ts", Float ev.ts) ]
    @ dur
    @ [ ("args", Obj (List.map (fun (k, v) -> (k, arg_json v)) ev.args)) ])

let snapshot () = with_lock (fun () -> List.rev !events)

(* tracks of a pid, in deterministic (sorted) order *)
let tracks_of evs pid =
  List.sort_uniq String.compare
    (List.filter_map (fun e -> if e.pid = pid then Some e.track else None) evs)

let to_json () =
  let evs = snapshot () in
  let vtracks = tracks_of evs virtual_pid in
  let wtracks = tracks_of evs wall_pid in
  let tid_of pid track =
    let ts = if pid = virtual_pid then vtracks else wtracks in
    let rec idx i = function
      | [] -> 0
      | t :: _ when String.equal t track -> i
      | _ :: rest -> idx (i + 1) rest
    in
    1 + idx 0 ts
  in
  let meta =
    (* process/thread names so Perfetto labels the tracks; metadata for
       the wall pid is tagged onto it and stripped with it *)
    let proc pid name =
      { ph = M; name = "process_name"; cat = "meta"; pid; track = "";
        ts = 0.0; dur = 0.0; args = [ ("name", Str name) ] }
    in
    let threads pid =
      List.map
        (fun track ->
          { ph = M; name = "thread_name"; cat = "meta"; pid; track; ts = 0.0;
            dur = 0.0; args = [ ("name", Str track) ] })
        (if pid = virtual_pid then vtracks else wtracks)
    in
    (if vtracks = [] then []
     else proc virtual_pid "simulator (virtual cycles)" :: threads virtual_pid)
    @
    if wtracks = [] then []
    else proc wall_pid "compiler (wall clock, us)" :: threads wall_pid
  in
  (* virtual events first (deterministic), then wall; within a pid the
     events are grouped by track, each track keeping record order (the
     recorder guarantees per-track timestamp order) *)
  let body =
    List.stable_sort
      (fun a b ->
        match compare (-a.pid) (-b.pid) with
        | 0 -> compare (tid_of a.pid a.track) (tid_of b.pid b.track)
        | c -> c)
      evs
  in
  (* one event per line, so the wall-clock (pid 0) lines can be dropped
     to get the deterministic golden form *)
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string b ",\n";
      Json.to_buffer b (event_json (tid_of ev.pid ev.track) ev))
    (meta @ body);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ----------------------------- summary ----------------------------- *)

type track_acc = {
  mutable spans : int;
  mutable busy : float;
  mutable first : float;
  mutable last : float;
  mutable open_ts : float;
}

let summary () =
  let evs = snapshot () in
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* virtual tracks: reconstruct span durations from the B/E pairs *)
  let vt : (string, track_acc) Hashtbl.t = Hashtbl.create 16 in
  let makespan = ref 0.0 in
  List.iter
    (fun e ->
      if e.pid = virtual_pid then begin
        let acc =
          match Hashtbl.find_opt vt e.track with
          | Some a -> a
          | None ->
              let a =
                { spans = 0; busy = 0.0; first = infinity; last = 0.0;
                  open_ts = 0.0 }
              in
              Hashtbl.add vt e.track a;
              a
        in
        match e.ph with
        | B ->
            acc.open_ts <- e.ts;
            if e.ts < acc.first then acc.first <- e.ts
        | E ->
            acc.spans <- acc.spans + 1;
            acc.busy <- acc.busy +. (e.ts -. acc.open_ts);
            if e.ts > acc.last then acc.last <- e.ts;
            if e.ts > !makespan then makespan := e.ts
        | _ -> ()
      end)
    evs;
  if Hashtbl.length vt > 0 then begin
    pr "virtual timeline (makespan %s cycles)\n" (float_str !makespan);
    pr "  %-38s %8s %14s %7s %14s\n" "track" "spans" "busy cycles" "util"
      "stall cycles";
    List.iter
      (fun (track, a) ->
        let util = if !makespan > 0.0 then a.busy /. !makespan else 0.0 in
        let stall = a.last -. a.first -. a.busy in
        pr "  %-38s %8d %14s %6.1f%% %14s\n" track a.spans (float_str a.busy)
          (100.0 *. util)
          (float_str (Float.max 0.0 stall)))
      (List.sort compare
         (Hashtbl.fold (fun k v acc -> (k, v) :: acc) vt []))
  end;
  (* wall spans aggregated by name *)
  let wt : (string, float * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if e.pid = wall_pid && e.ph = X then
        let t, n =
          match Hashtbl.find_opt wt e.name with Some x -> x | None -> (0.0, 0)
        in
        Hashtbl.replace wt e.name (t +. e.dur, n + 1))
    evs;
  if Hashtbl.length wt > 0 then begin
    pr "wall-clock spans (total ms, by name)\n";
    let rows = Hashtbl.fold (fun k (t, n) acc -> (t, n, k) :: acc) wt [] in
    let rows = List.sort (fun (a, _, _) (b, _, _) -> compare b a) rows in
    List.iteri
      (fun i (t, n, name) ->
        if i < 12 then pr "  %-38s %8d %11.3f ms\n" name n (t /. 1e3))
      rows
  end;
  Buffer.contents buf
