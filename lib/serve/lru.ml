type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards the most-recent end *)
  mutable next : 'a node option;  (* towards the least-recent end *)
}

type 'a t = {
  capacity : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  {
    capacity;
    tbl = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let length t = Hashtbl.length t.tbl
let capacity t = t.capacity
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let unlink t node =
  (match node.prev with
   | Some p -> p.next <- node.next
   | None -> t.head <- node.next);
  (match node.next with
   | Some n -> n.prev <- node.prev
   | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let promote t node =
  match t.head with
  | Some h when h == node -> ()
  | _ ->
    unlink t node;
    push_front t node

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some node ->
    t.hits <- t.hits + 1;
    promote t node;
    Some node.value

let add t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some node ->
    node.value <- value;
    promote t node
  | None ->
    if Hashtbl.length t.tbl >= t.capacity then begin
      match t.tail with
      | None -> ()  (* capacity >= 1 and table non-empty: unreachable *)
      | Some lru ->
        unlink t lru;
        Hashtbl.remove t.tbl lru.key;
        t.evictions <- t.evictions + 1
    end;
    let node = { key; value; prev = None; next = None } in
    push_front t node;
    Hashtbl.add t.tbl key node
