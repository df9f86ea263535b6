(** The single-writer rule, as a lock whose waiters park (see the
    implementation's header).

    Metrics: srv.rwlock.parked_reads / parked_writes / park_expired
    (parks that ended without the lock: deadline, cancel, closed
    session, shutdown) counters, srv.rwlock.wait wall-clock timing. *)

type t

type hold = Shared | Exclusive
(** A reader count, or a depth of the session-owned write side (the
    owner's own reads nest as depths too). *)

type waiter
(** One request's place in line.  [wake] runs, with no lock state held,
    when the parked waiter is granted the lock or taken off the list;
    [deadline] is absolute Unix time. *)

val create : Obs.Metrics.t -> t
(** Starts the deadline timer thread; {!close} stops it. *)

val waiter :
  ?deadline:float -> session:int -> req:int -> wake:(unit -> unit) -> unit ->
  waiter

val holds_write : t -> session:int -> bool

val acquire_read : t -> waiter -> [ `Held of hold | `Parked | `Closed ]
(** The grant the waiter was handed, else the lock if no earlier waiter
    is in the way, else park — [`Closed] instead once {!close} ran. *)

val acquire_write : t -> waiter -> [ `Held of hold | `Parked | `Closed ]
val release : t -> session:int -> hold -> unit

val abandon : t -> waiter -> unit
(** The request is answered without running: give back its grant or its
    place in line, without waking it. *)

val unpark : t -> session:int -> req:int -> unit
(** Cancel: take the request off the list and wake it. *)

val forfeit_write : t -> session:int -> unit
(** Session teardown: drop write ownership whatever the depth and wake
    the session's parked requests. *)

val close : t -> unit
(** Shutdown: wake every parked request ungranted, refuse to park from
    now on, stop the timer thread. *)
