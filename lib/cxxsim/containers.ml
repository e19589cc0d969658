(** STL-like containers whose storage lives in VM memory.

    A [vector] (geometric growth through the allocator) and a [map]
    (sorted singly-linked list of nodes, standing in for the red-black
    tree — the access pattern per lookup/insert is what matters, not
    the asymptotics at simulation sizes).

    Containers take the {!Allocator} they were "instantiated" with, so
    the pool-allocator false-positive experiment (E12) can flip one
    switch. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api

(* ------------------------------------------------------------------ *)
(* vector<int>                                                         *)
(* ------------------------------------------------------------------ *)

module Vector = struct
  (* header: [size; capacity; data] *)
  type t = { hdr : int; alloc : Allocator.t }

  let hdr_size = 0
  let hdr_cap = 1
  let hdr_data = 2

  let lc = Loc.site "stl_vector.h" "std::vector::"

  let create alloc =
    let hdr = Api.alloc ~loc:(lc "vector" 100) 3 in
    Api.write ~loc:(lc "vector" 101) (hdr + hdr_size) 0;
    Api.write ~loc:(lc "vector" 102) (hdr + hdr_cap) 0;
    Api.write ~loc:(lc "vector" 103) (hdr + hdr_data) 0;
    { hdr; alloc }

  let size t = Api.read ~loc:(lc "size" 110) (t.hdr + hdr_size)

  let get t i =
    let data = Api.read ~loc:(lc "operator[]" 120) (t.hdr + hdr_data) in
    Api.read ~loc:(lc "operator[]" 121) (data + i)

  let set t i v =
    let data = Api.read ~loc:(lc "operator[]" 125) (t.hdr + hdr_data) in
    Api.write ~loc:(lc "operator[]" 126) (data + i) v

  let push_back t v =
    let n = size t in
    let cap = Api.read ~loc:(lc "push_back" 131) (t.hdr + hdr_cap) in
    if n = cap then begin
      let new_cap = max 4 (2 * cap) in
      let fresh = Allocator.alloc t.alloc ~loc:(lc "push_back" 134) new_cap in
      let old = Api.read ~loc:(lc "push_back" 135) (t.hdr + hdr_data) in
      for i = 0 to n - 1 do
        Api.write ~loc:(lc "push_back" 137) (fresh + i) (Api.read ~loc:(lc "push_back" 137) (old + i))
      done;
      if old <> 0 then Allocator.free t.alloc ~loc:(lc "push_back" 139) old cap;
      Api.write ~loc:(lc "push_back" 140) (t.hdr + hdr_data) fresh;
      Api.write ~loc:(lc "push_back" 141) (t.hdr + hdr_cap) new_cap
    end;
    set t n v;
    Api.write ~loc:(lc "push_back" 144) (t.hdr + hdr_size) (n + 1)

  let iter t f =
    for i = 0 to size t - 1 do
      f (get t i)
    done

  let destroy t =
    let cap = Api.read ~loc:(lc "~vector" 150) (t.hdr + hdr_cap) in
    let data = Api.read ~loc:(lc "~vector" 151) (t.hdr + hdr_data) in
    if data <> 0 then Allocator.free t.alloc ~loc:(lc "~vector" 152) data cap;
    Api.free ~loc:(lc "~vector" 153) t.hdr
end

(* ------------------------------------------------------------------ *)
(* map<int,int>                                                        *)
(* ------------------------------------------------------------------ *)

module Map = struct
  (* header: [first; size]; node: [key; value; next] *)
  type t = { hdr : int; alloc : Allocator.t }

  let node_size = 3
  let lc = Loc.site "stl_map.h" "std::map::"

  let create alloc =
    let hdr = Api.alloc ~loc:(lc "map" 200) 2 in
    Api.write ~loc:(lc "map" 201) hdr 0;
    Api.write ~loc:(lc "map" 202) (hdr + 1) 0;
    { hdr; alloc }

  (** The header address: what a method "returning a reference to the
      internal map" hands out (the §4.1.2 bug pattern). *)
  let address t = t.hdr

  let of_address alloc hdr = { hdr; alloc }

  let size t = Api.read ~loc:(lc "size" 210) (t.hdr + 1)

  let find t key =
    let rec go node =
      if node = 0 then None
      else
        let k = Api.read ~loc:(lc "find" 222) node in
        if k = key then Some (Api.read ~loc:(lc "find" 223) (node + 1))
        else if k > key then None
        else go (Api.read ~loc:(lc "find" 225) (node + 2))
    in
    go (Api.read ~loc:(lc "find" 227) t.hdr)

  let insert t key value =
    (* sorted insert; update in place when the key exists *)
    let new_node () =
      let n = Allocator.alloc t.alloc ~loc:(lc "insert" 233) node_size in
      Api.write ~loc:(lc "insert" 234) n key;
      Api.write ~loc:(lc "insert" 235) (n + 1) value;
      n
    in
    let bump () = Api.write ~loc:(lc "insert" 237) (t.hdr + 1) (size t + 1) in
    let rec go prev node =
      if node = 0 then begin
        let n = new_node () in
        Api.write ~loc:(lc "insert" 241) (n + 2) 0;
        Api.write ~loc:(lc "insert" 242) prev n;
        bump ()
      end
      else
        let k = Api.read ~loc:(lc "insert" 245) node in
        if k = key then Api.write ~loc:(lc "insert" 246) (node + 1) value
        else if k > key then begin
          let n = new_node () in
          Api.write ~loc:(lc "insert" 249) (n + 2) node;
          Api.write ~loc:(lc "insert" 250) prev n;
          bump ()
        end
        else go (node + 2) (Api.read ~loc:(lc "insert" 252) (node + 2))
    in
    go t.hdr (Api.read ~loc:(lc "insert" 254) t.hdr)

  let remove t key =
    let dec () = Api.write ~loc:(lc "erase" 258) (t.hdr + 1) (size t - 1) in
    let rec go prev node =
      if node = 0 then false
      else
        let k = Api.read ~loc:(lc "erase" 262) node in
        if k = key then begin
          let next = Api.read ~loc:(lc "erase" 264) (node + 2) in
          Api.write ~loc:(lc "erase" 265) prev next;
          Allocator.free t.alloc ~loc:(lc "erase" 266) node node_size;
          dec ();
          true
        end
        else if k > key then false
        else go (node + 2) (Api.read ~loc:(lc "erase" 271) (node + 2))
    in
    go t.hdr (Api.read ~loc:(lc "erase" 273) t.hdr)

  let iter t f =
    let rec go node =
      if node <> 0 then begin
        let k = Api.read ~loc:(lc "iterator" 279) node in
        let v = Api.read ~loc:(lc "iterator" 280) (node + 1) in
        f k v;
        go (Api.read ~loc:(lc "iterator" 282) (node + 2))
      end
    in
    go (Api.read ~loc:(lc "begin" 284) t.hdr)

  let clear t =
    let rec go node =
      if node <> 0 then begin
        let next = Api.read ~loc:(lc "clear" 290) (node + 2) in
        Allocator.free t.alloc ~loc:(lc "clear" 291) node node_size;
        go next
      end
    in
    go (Api.read ~loc:(lc "clear" 294) t.hdr);
    Api.write ~loc:(lc "clear" 295) t.hdr 0;
    Api.write ~loc:(lc "clear" 296) (t.hdr + 1) 0

  let destroy t =
    clear t;
    Api.free ~loc:(lc "~map" 300) t.hdr
end
