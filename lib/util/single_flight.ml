(** Keyed in-flight computation coalescing (see single_flight.mli). *)

type 'v outcome =
  | Value of 'v
  | Raised of exn * Printexc.raw_backtrace

type 'v entry = {
  e_lock : Mutex.t;
  e_done : Condition.t;
  e_tag : string;  (** leader-supplied tag (e.g. its trace id) *)
  mutable e_outcome : 'v outcome option;  (** [None] while the leader runs *)
  mutable e_joined : int;  (** followers attached so far; under [t.lock] *)
}

type 'v t = {
  lock : Mutex.t;  (** guards [tbl] only; never held while computing *)
  tbl : (string, 'v entry) Hashtbl.t;
}

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 16 }

let in_flight t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  n

let joined t key =
  Mutex.lock t.lock;
  let n =
    match Hashtbl.find_opt t.tbl key with Some e -> e.e_joined | None -> 0
  in
  Mutex.unlock t.lock;
  n

let publish e outcome =
  Mutex.lock e.e_lock;
  e.e_outcome <- Some outcome;
  Condition.broadcast e.e_done;
  Mutex.unlock e.e_lock

let await e =
  Mutex.lock e.e_lock;
  while e.e_outcome = None do
    Condition.wait e.e_done e.e_lock
  done;
  let outcome = Option.get e.e_outcome in
  Mutex.unlock e.e_lock;
  outcome

let run_tagged t key ~tag f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    (* follower: the leader is computing; wait for its publication.  The
       entry reference stays valid after removal from the table. *)
    e.e_joined <- e.e_joined + 1;
    Mutex.unlock t.lock;
    (match await e with
    | Value v -> `Joined (e.e_tag, v)
    | Raised (exn, bt) -> Printexc.raise_with_backtrace exn bt)
  | None ->
    let e =
      {
        e_lock = Mutex.create ();
        e_done = Condition.create ();
        e_tag = tag;
        e_outcome = None;
        e_joined = 0;
      }
    in
    Hashtbl.add t.tbl key e;
    Mutex.unlock t.lock;
    let outcome =
      try Value (f ()) with exn -> Raised (exn, Printexc.get_raw_backtrace ())
    in
    (* publication order: wake the followers first, then retire the entry
       so later callers start a fresh flight.  Both happen on every path,
       including a raising thunk — no waiter hangs, no entry leaks. *)
    publish e outcome;
    Mutex.lock t.lock;
    Hashtbl.remove t.tbl key;
    Mutex.unlock t.lock;
    (match outcome with
    | Value v -> `Led v
    | Raised (exn, bt) -> Printexc.raise_with_backtrace exn bt)

let run t key f =
  match run_tagged t key ~tag:"" f with
  | `Led v -> `Led v
  | `Joined (_tag, v) -> `Joined v
