type span = {
  sp_track : string;
  sp_name : string;
  sp_start : float;
  sp_finish : float;
  sp_args : (string * float) list;
}

type timeline = {
  tl_spans : span list;
  tl_dram_busy : (float * float) list;
  tl_makespan : float;
}

type track_stats = {
  tk_track : string;
  tk_spans : int;
  tk_busy : float;
  tk_first : float;
  tk_last : float;
}

type result = {
  report : Simulate.report;
  events : int;
  fallbacks : int;
  timeline : timeline option;
}

let max_events = 200_000

(* ------------------------- the DRAM calendar ------------------------- *)

module Calendar = struct
  (* Sorted, strictly disjoint busy spans [starts.(i), ends.(i)) for
     [i < len]; both arrays ascend. *)
  type t = {
    mutable starts : float array;
    mutable ends : float array;
    mutable len : int;
  }

  let max_spans = 2048
  let create () = { starts = Array.make 64 0.0; ends = Array.make 64 0.0; len = 0 }
  let span c i = (c.starts.(i), c.ends.(i))
  let spans c = List.init c.len (span c)

  (* first span ending at or after [x] ([len] if none) *)
  let first_ending_from c x =
    let lo = ref 0 and hi = ref c.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if c.ends.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

  (* [compare] on float pairs, without the polymorphic dispatch *)
  let compare_span (s1, e1) (s2, e2) =
    let c = Float.compare s1 s2 in
    if c <> 0 then c else Float.compare e1 e2

  let rec merge = function
    | (s1, e1) :: (s2, e2) :: rest when e1 >= s2 ->
        merge ((s1, Float.max e1 e2) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []

  let rec last_end = function
    | [ (_, e) ] -> e
    | _ :: rest -> last_end rest
    | [] -> neg_infinity

  (* replace spans [i, j) by [repl] *)
  let splice c i j repl =
    let m = List.length repl in
    let len = c.len - (j - i) + m in
    if len > Array.length c.starts then begin
      let grow a =
        let b = Array.make (2 * len) 0.0 in
        Array.blit a 0 b 0 c.len;
        b
      in
      c.starts <- grow c.starts;
      c.ends <- grow c.ends
    end;
    Array.blit c.starts j c.starts (i + m) (c.len - j);
    Array.blit c.ends j c.ends (i + m) (c.len - j);
    List.iteri
      (fun k (s, e) ->
        c.starts.(i + k) <- s;
        c.ends.(i + k) <- e)
      repl;
    c.len <- len

  (* Beyond [max_spans], conservatively coalesce the oldest half into one
     busy span.  Requests rarely back-fill that far; when one does, it
     finds no gap inside the block, so the approximation is pessimistic. *)
  let coalesce c =
    if c.len > max_spans then begin
      let h = c.len / 2 in
      c.ends.(0) <- c.ends.(h - 1);
      Array.blit c.starts h c.starts 1 (c.len - h);
      Array.blit c.ends h c.ends 1 (c.len - h);
      c.len <- c.len - h + 1
    end

  (* The interface time-multiplexes outstanding transfers at burst
     granularity, so a request consumes the idle gaps of the calendar in
     time order (preemptive FIFO) rather than needing one contiguous
     slot.  Spans ending before the request are untouched, and so are
     the spans past the gap where it completes: only that window is
     sorted and merged with the new busy spans, then spliced back. *)
  let transfer c t dur =
    if dur <= 0.0 then t
    else begin
      let c0 = Float.max t 0.0 in
      let i0 = first_ending_from c c0 in
      (* walk spans from [k]; returns the first span not reached, the new
         busy spans (newest first) and the completion time *)
      let rec consume k cursor remaining fresh =
        if k = c.len then
          (k, (cursor, cursor +. remaining) :: fresh, cursor +. remaining)
        else
          let s = c.starts.(k) and e = c.ends.(k) in
          if e <= cursor then consume (k + 1) cursor remaining fresh
          else if s <= cursor then consume (k + 1) e remaining fresh
          else
            let gap = s -. cursor in
            if gap >= remaining then
              (k, (cursor, cursor +. remaining) :: fresh, cursor +. remaining)
            else consume (k + 1) e (remaining -. gap) ((cursor, s) :: fresh)
      in
      let j, fresh, fin = consume i0 c0 dur [] in
      (* sort and merge the window [i0, j), growing it while its last
         span reaches the next one (a gap filled exactly), as a merge of
         the whole calendar would *)
      let rec settle j =
        let window = List.init (j - i0) (fun k -> span c (i0 + k)) in
        let merged =
          merge (List.sort compare_span (List.rev_append fresh window))
        in
        if j < c.len && last_end merged >= c.starts.(j) then settle (j + 1)
        else (j, merged)
      in
      let j, merged = settle j in
      splice c i0 j merged;
      coalesce c;
      fin
    end
end

(* ------------------------- the per-run plan ------------------------- *)

(* The design compiled once per run for its sizes and machine: trip
   counts, compute cycles, per-access DRAM cycles and words, and the
   event-budget decision are all static, so [exec] only schedules. *)

type access = {
  a_cycles : float;  (** DRAM cycles per invocation *)
  a_slot : int;  (** traffic slot of (direction, array) *)
  a_words : float;
}

type plan =
  | Pipe of { compute : float; accesses : access list }
  | Transfer of access  (** a tile load or store *)
  | Seq of plan list
  | Par of plan list
  | Loop of { iters : int; stages : plan list }
  | Metapipe of { iters : int; stages : stage array }
  | Fallback of { cycles : float; dram_cycles : float; traffic : (int * float) list }
      (** a subtree beyond the event budget, costed analytically:
          its report and (slot, words) traffic *)
  | Traced of { name : string; plan : plan }
      (** a top-level controller with its own timeline track *)

and stage = { plan : plan; stage_name : string; track : string }

(* traffic slots, numbered while the plan is built: (is write, array)
   -> slot *)
type slots = (bool * string, int) Hashtbl.t

let slot (slots : slots) key =
  match Hashtbl.find_opt slots key with
  | Some i -> i
  | None ->
      let i = Hashtbl.length slots in
      Hashtbl.add slots key i;
      i

let trip_count sizes trips =
  let x = List.fold_left (fun acc t -> acc *. Hw.trip_eval sizes t) 1.0 trips in
  Float.max 1.0 x

(* static count of controller instances a subtree would schedule *)
let rec instance_count sizes (c : Hw.ctrl) =
  let sum = List.fold_left (fun acc ch -> acc +. instance_count sizes ch) 1.0 in
  match c with
  | Hw.Pipe _ | Hw.Tile_load _ | Hw.Tile_store _ -> 1.0
  | Hw.Seq { children; _ } | Hw.Par { children; _ } -> sum children
  | Hw.Loop { trips; stages; _ } ->
      1.0 +. (trip_count sizes trips *. sum stages)

let rec compile (m : Machine.t) sizes slots (c : Hw.ctrl) =
  let tile_access ~write array w =
    { a_cycles = m.Machine.tile_latency +. (w /. m.Machine.stream_words_per_cycle);
      a_slot = slot slots (write, array);
      a_words = w }
  in
  match c with
  | Hw.Pipe { trips; par; depth; ii; dram; _ } ->
      let iters = trip_count sizes trips in
      let compute =
        float_of_int depth
        +. (ceil (iters /. float_of_int (Int.max 1 par)) *. float_of_int ii)
      in
      let access da =
        let words = Simulate.direct_words m sizes da in
        let cyc, words =
          match da.Hw.da_kind with
          | `Cached ->
              let fp = Float.min (Simulate.cached_footprint m sizes da) words in
              (fp /. m.Machine.stream_words_per_cycle, fp)
          | _ -> (Simulate.direct_cycles m sizes par words da, words)
        in
        { a_cycles = cyc;
          a_slot = slot slots (da.Hw.da_kind = `Write, da.Hw.da_array);
          a_words = words }
      in
      Pipe { compute; accesses = List.map access dram }
  | Hw.Tile_load { words; reuse; array; _ } ->
      Transfer
        (tile_access ~write:false array
           (Hw.trip_eval sizes words /. float_of_int (Int.max 1 reuse)))
  | Hw.Tile_store { words; array; _ } ->
      Transfer (tile_access ~write:true array (Hw.trip_eval sizes words))
  | Hw.Seq { children; _ } -> Seq (List.map (compile m sizes slots) children)
  | Hw.Par { children; _ } -> Par (List.map (compile m sizes slots) children)
  | Hw.Loop _ when instance_count sizes c > float_of_int max_events ->
      let report =
        Simulate.run ~machine:m
          { Hw.design_name = "sub"; mems = []; top = c; par_factor = 1 }
          ~sizes
      in
      let traffic write = List.map (fun (a, w) -> (slot slots (write, a), w)) in
      Fallback
        { cycles = report.Simulate.cycles;
          dram_cycles = report.Simulate.dram_cycles;
          traffic =
            traffic false report.Simulate.reads
            @ traffic true report.Simulate.writes }
  | Hw.Loop { name; trips; meta; stages; _ } ->
      let iters = int_of_float (trip_count sizes trips) in
      if (not meta) || List.length stages <= 1 then
        Loop { iters; stages = List.map (compile m sizes slots) stages }
      else
        let stage ch =
          let stage_name = Hw.ctrl_name ch in
          { plan = compile m sizes slots ch; stage_name;
            track = name ^ "." ^ stage_name }
        in
        Metapipe { iters; stages = Array.of_list (List.map stage stages) }

(* ------------------------- the schedule ------------------------- *)

(* Mutable simulation state: the DRAM interface as a calendar of busy
   intervals (a request is granted the earliest idle gap at or after its
   request time — so a transfer issued by a later-visited controller can
   still use memory idle time before an earlier-visited one), the event
   budget, and traffic accumulators. *)
type st = {
  cal : Calendar.t;
  mutable dram_busy : float;  (** accumulated DRAM-busy cycles *)
  mutable events : int;
  mutable fallbacks : int;
  traffic : float array;  (** words per slot *)
  touched : bool array;  (** slot has traffic *)
  record : bool;  (** collect the timeline *)
  mutable spans : span list;  (** newest first *)
}

let push_span st ~track ~name ~start ~finish args =
  st.spans <-
    { sp_track = track; sp_name = name; sp_start = start; sp_finish = finish;
      sp_args = args }
    :: st.spans

let add st i words =
  if st.touched.(i) then st.traffic.(i) <- st.traffic.(i) +. words
  else begin
    st.touched.(i) <- true;
    st.traffic.(i) <- words
  end

(* Acquire [dur] cycles of DRAM time starting no earlier than [t];
   returns the completion time. *)
let dram_transfer st t dur =
  if dur > 0.0 then st.dram_busy <- st.dram_busy +. dur;
  Calendar.transfer st.cal t dur

let access st t a =
  add st a.a_slot a.a_words;
  dram_transfer st t a.a_cycles

let rec exec st t = function
  | Pipe { compute; accesses } ->
      st.events <- st.events + 1;
      let mem_end =
        List.fold_left (fun acc a -> Float.max acc (access st t a)) t accesses
      in
      Float.max (t +. compute) mem_end
  | Transfer a ->
      st.events <- st.events + 1;
      access st t a
  | Seq children -> List.fold_left (fun now ch -> exec st now ch) t children
  | Par children ->
      (* all start together; the DRAM queue serializes their transfers in
         list order *)
      List.fold_left (fun fin ch -> Float.max fin (exec st t ch)) t children
  | Loop { iters; stages } ->
      let now = ref t in
      for _ = 1 to iters do
        List.iter (fun s -> now := exec st !now s) stages
      done;
      !now
  | Metapipe { iters; stages } ->
      (* stage s of iteration i waits for stage s-1 of iteration i and for
         its own iteration i-1 (double buffer) *)
      let avail = Array.make (Array.length stages) t in
      for i = 1 to iters do
        let prev_done = ref t in
        Array.iteri
          (fun s stage ->
            let start = Float.max !prev_done avail.(s) in
            let fin = exec st start stage.plan in
            (* Gantt: one track per metapipeline stage, one span per
               iteration instance; stage instances never overlap on
               their own track (avail.(s) serializes them) *)
            if st.record then
              push_span st ~track:stage.track
                ~name:(Printf.sprintf "%s#%d" stage.stage_name i)
                ~start ~finish:fin
                [ ("iteration", float_of_int i) ];
            avail.(s) <- fin;
            prev_done := fin)
          stages
      done;
      avail.(Array.length stages - 1)
  | Traced { name; plan } ->
      let fin = exec st t plan in
      push_span st ~track:name ~name ~start:t ~finish:fin [ ("top-level", 1.0) ];
      fin
  | Fallback { cycles; dram_cycles; traffic } ->
      st.fallbacks <- st.fallbacks + 1;
      List.iter (fun (i, w) -> add st i w) traffic;
      ignore (dram_transfer st t dram_cycles);
      t +. cycles

let run ?(machine = Machine.default) ?(record = false) (d : Hw.design) ~sizes =
  let slots = Hashtbl.create 16 in
  let compile = compile machine sizes slots in
  (* when recording, each top-level controller also gets a span on its
     own track *)
  let traced ch = Traced { name = Hw.ctrl_name ch; plan = compile ch } in
  let top =
    match d.Hw.top with
    | Hw.Seq { children; _ } when record -> Seq (List.map traced children)
    | Hw.Par { children; _ } when record -> Par (List.map traced children)
    | top -> compile top
  in
  let st =
    { cal = Calendar.create (); dram_busy = 0.0; events = 0; fallbacks = 0;
      traffic = Array.make (Hashtbl.length slots) 0.0;
      touched = Array.make (Hashtbl.length slots) false; record; spans = [] }
  in
  let fin = exec st 0.0 top in
  let traffic write =
    List.sort compare
      (Hashtbl.fold
         (fun (w, a) i rws ->
           if w = write && st.touched.(i) then (a, st.traffic.(i)) :: rws else rws)
         slots [])
  in
  { report =
      { Simulate.cycles = fin;
        dram_cycles = st.dram_busy;
        reads = traffic false;
        writes = traffic true };
    events = st.events;
    fallbacks = st.fallbacks;
    timeline =
      (if record then
         Some
           { tl_spans = List.rev st.spans;
             tl_dram_busy = Calendar.spans st.cal;
             tl_makespan = fin }
       else None) }

let track_stats tl =
  let tbl : (string, track_stats) Hashtbl.t = Hashtbl.create 16 in
  let touch track start finish =
    match Hashtbl.find_opt tbl track with
    | Some tk ->
        Hashtbl.replace tbl track
          { tk with
            tk_spans = tk.tk_spans + 1;
            tk_busy = tk.tk_busy +. (finish -. start);
            tk_first = Float.min tk.tk_first start;
            tk_last = Float.max tk.tk_last finish }
    | None ->
        Hashtbl.add tbl track
          { tk_track = track; tk_spans = 1; tk_busy = finish -. start;
            tk_first = start; tk_last = finish }
  in
  List.iter (fun sp -> touch sp.sp_track sp.sp_start sp.sp_finish) tl.tl_spans;
  List.iter (fun (s, e) -> touch "DRAM" s e) tl.tl_dram_busy;
  List.sort
    (fun a b -> String.compare a.tk_track b.tk_track)
    (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])
