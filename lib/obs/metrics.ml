(* A small in-process metrics registry.

   Three deterministic instrument kinds — counters, gauges, and sample
   series (from which equi-depth histograms and summaries are derived via
   {!Stats.Histogram}) — plus wall-clock timings, which are kept in a
   *separate* store so that everything reachable from [snapshot] is
   reproducible run-to-run: no timestamp ever leaks into a counter, a
   gauge, a sample, or a sys.metrics row.  Timings are informational
   only and surface through [pp_timings] / [timings].

   Every mutation and every read goes through one mutex, because the
   registry is shared by the server's worker domains (lib/srv): a read
   query finishing on one domain and a write statement on another both
   feed the same counters.  The lock is per-registry and held only for
   the table operation itself, so contention stays negligible next to
   query execution.

   Metric names are dotted paths ("exec.rows.scanned",
   "feedback.recalibrations"); the registry imposes no schema on them. *)

(* @guarded-by obs.metrics *)
type timing = { mutable calls : int; mutable elapsed_s : float }

(* @guarded-by obs.metrics *)
type t = {
  lock : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  samples : (string, float list ref) Hashtbl.t; (* newest first *)
  times : (string, timing) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    samples = Hashtbl.create 16;
    times = Hashtbl.create 16;
  }

let locked t f =
  (* leaf lock: callers tick metrics from under most other subsystems'
     locks, so nothing may be acquired while this is held *)
  (* @acquires obs.metrics while srv.session db.rwlock srv.server.registry core.plan_cache core.recalibration *)
  Lockdep.acquire "obs.metrics";
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.lock;
      Lockdep.release "obs.metrics")
    f

let reset t =
  locked t (fun () ->
      Hashtbl.reset t.counters;
      Hashtbl.reset t.gauges;
      Hashtbl.reset t.samples;
      Hashtbl.reset t.times)

(* ---- counters ---------------------------------------------------------- *)

let incr ?(by = 1) t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace t.counters name (ref by))

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

(* ---- gauges ------------------------------------------------------------ *)

let set_gauge t name v =
  locked t (fun () ->
      match Hashtbl.find_opt t.gauges name with
      | Some r -> r := v
      | None -> Hashtbl.replace t.gauges name (ref v))

let add_gauge t name by =
  locked t (fun () ->
      match Hashtbl.find_opt t.gauges name with
      | Some r -> r := !r +. by
      | None -> Hashtbl.replace t.gauges name (ref by))

let gauge t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.gauges name with
      | Some r -> Some !r
      | None -> None)

(* ---- sample series ----------------------------------------------------- *)

let observe t name v =
  locked t (fun () ->
      match Hashtbl.find_opt t.samples name with
      | Some r -> r := v :: !r
      | None -> Hashtbl.replace t.samples name (ref [ v ]))

(* oldest-first *)
let samples_unlocked t name =
  match Hashtbl.find_opt t.samples name with
  | Some r -> List.rev !r
  | None -> []

let samples t name = locked t (fun () -> samples_unlocked t name)

(* Equi-depth histogram over a sample series, reusing the engine's own
   statistics machinery. *)
let histogram ?buckets t name =
  Stats.Histogram.build ?buckets
    (List.map (fun v -> Rel.Value.Float v) (samples t name))

type summary = {
  count : int;
  sum : float;
  mean : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p95 : float;
}

let summary_unlocked t name =
  match samples_unlocked t name with
  | [] -> None
  | vs ->
      let arr = Array.of_list vs in
      Array.sort compare arr;
      let n = Array.length arr in
      let sum = Array.fold_left ( +. ) 0.0 arr in
      let quantile q =
        arr.(min (n - 1) (int_of_float (q *. float_of_int n)))
      in
      Some
        {
          count = n;
          sum;
          mean = sum /. float_of_int n;
          min_v = arr.(0);
          max_v = arr.(n - 1);
          p50 = quantile 0.5;
          p95 = quantile 0.95;
        }

let summary t name = locked t (fun () -> summary_unlocked t name)

(* ---- timings (wall clock; never part of the snapshot) ------------------- *)

let record_time t name elapsed_s =
  locked t (fun () ->
      match Hashtbl.find_opt t.times name with
      | Some tm ->
          tm.calls <- tm.calls + 1;
          tm.elapsed_s <- tm.elapsed_s +. elapsed_s
      | None -> Hashtbl.replace t.times name { calls = 1; elapsed_s })

(* on the monotonic clock: [Sys.time] would count every thread's CPU
   time, and costs a system call *)
let time t name f =
  let t0 = Monotonic_clock.now () in
  Fun.protect
    ~finally:(fun () ->
      record_time t name
        (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9))
    f

let timings t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name tm acc -> (name, tm.calls, tm.elapsed_s) :: acc)
        t.times [])
  |> List.sort compare

(* ---- snapshot ----------------------------------------------------------- *)

(* Deterministic view of every non-timing instrument: (name, kind, value),
   sorted by name.  Sample series are expanded into .count/.mean/.min/.max
   scalar rows so the snapshot stays flat and SQL-friendly. *)
let snapshot t : (string * string * float) list =
  locked t (fun () ->
      let rows = ref [] in
      Hashtbl.iter
        (fun name r -> rows := (name, "counter", float_of_int !r) :: !rows)
        t.counters;
      Hashtbl.iter
        (fun name r -> rows := (name, "gauge", !r) :: !rows)
        t.gauges;
      Hashtbl.iter
        (fun name _ ->
          match summary_unlocked t name with
          | None -> ()
          | Some s ->
              rows :=
                (name ^ ".count", "sample", float_of_int s.count)
                :: (name ^ ".mean", "sample", s.mean)
                :: (name ^ ".min", "sample", s.min_v)
                :: (name ^ ".max", "sample", s.max_v)
                :: !rows)
        t.samples;
      List.sort compare !rows)

let pp_timings ppf t =
  List.iter
    (fun (name, calls, elapsed) ->
      Fmt.pf ppf "@.  %-32s calls=%-6d total=%.6fs" name calls elapsed)
    (timings t)

let pp ppf t =
  Fmt.pf ppf "metrics:";
  List.iter
    (fun (name, kind, v) -> Fmt.pf ppf "@.  %-32s %-8s %g" name kind v)
    (snapshot t);
  if timings t <> [] then begin
    Fmt.pf ppf "@.timings (wall clock):";
    pp_timings ppf t
  end
