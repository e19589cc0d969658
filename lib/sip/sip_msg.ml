(** SIP message wire format (RFC 3261 subset) and the in-VM object
    representation used by the server.

    The wire side (building and parsing strings) gives the workload
    driver a SIPp-like vocabulary.  The parser runs {e inside} the
    server: it reads the received buffer word by word through the VM,
    then materialises a [SipRequest]/[SipResponse] object whose header
    values are copy-on-write {!Raceguard_cxxsim.Refstring}s — the
    object and string traffic is what feeds the detector. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Obj_model = Raceguard_cxxsim.Object_model
module Refstring = Raceguard_cxxsim.Refstring

type meth = INVITE | ACK | BYE | CANCEL | REGISTER | OPTIONS

let meth_to_string = function
  | INVITE -> "INVITE"
  | ACK -> "ACK"
  | BYE -> "BYE"
  | CANCEL -> "CANCEL"
  | REGISTER -> "REGISTER"
  | OPTIONS -> "OPTIONS"

let meth_of_string = function
  | "INVITE" -> Some INVITE
  | "ACK" -> Some ACK
  | "BYE" -> Some BYE
  | "CANCEL" -> Some CANCEL
  | "REGISTER" -> Some REGISTER
  | "OPTIONS" -> Some OPTIONS
  | _ -> None

let meth_code = function
  | INVITE -> 1
  | ACK -> 2
  | BYE -> 3
  | CANCEL -> 4
  | REGISTER -> 5
  | OPTIONS -> 6

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)
(* ------------------------------------------------------------------ *)

type wire_request = {
  w_meth : meth;
  w_uri : string;
  w_from : string;
  w_to : string;
  w_call_id : string;
  w_cseq : int;
  w_contact : string;  (** empty when absent *)
  w_expires : int;  (** -1 when absent *)
  w_auth : int;  (** digest response from an Authorization header; 0 when absent *)
}

let request_to_wire r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s %s SIP/2.0\r\n" (meth_to_string r.w_meth) r.w_uri);
  Buffer.add_string b (Printf.sprintf "From: %s\r\n" r.w_from);
  Buffer.add_string b (Printf.sprintf "To: %s\r\n" r.w_to);
  Buffer.add_string b (Printf.sprintf "Call-ID: %s\r\n" r.w_call_id);
  Buffer.add_string b (Printf.sprintf "CSeq: %d %s\r\n" r.w_cseq (meth_to_string r.w_meth));
  if r.w_contact <> "" then Buffer.add_string b (Printf.sprintf "Contact: %s\r\n" r.w_contact);
  if r.w_expires >= 0 then Buffer.add_string b (Printf.sprintf "Expires: %d\r\n" r.w_expires);
  if r.w_auth <> 0 then
    Buffer.add_string b (Printf.sprintf "Authorization: Digest response=%d\r\n" r.w_auth);
  Buffer.add_string b "\r\n";
  Buffer.contents b

(** Minimal response decoding for the driver-side oracle. *)
let wire_status wire =
  if String.length wire > 12 && String.sub wire 0 8 = "SIP/2.0 " then
    int_of_string_opt (String.sub wire 8 3)
  else None

let wire_header wire name =
  let prefix = name ^ ": " in
  String.split_on_char '\n' wire
  |> List.find_map (fun line ->
         let line = String.trim line in
         if String.length line > String.length prefix
            && String.sub line 0 (String.length prefix) = prefix
         then Some (String.sub line (String.length prefix) (String.length line - String.length prefix))
         else None)

(* ------------------------------------------------------------------ *)
(* In-VM message objects                                               *)
(* ------------------------------------------------------------------ *)

(* class MessageBase { RefString from_, to_, call_id; int cseq; } *)
let message_base =
  Obj_model.define ~name:"MessageBase"
    ~fields:[ "from"; "to"; "call_id"; "cseq" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"sip_msg.cpp" ~base_line:62 cls obj
        ~strings:[ "from"; "to"; "call_id" ] ~ints:[ "cseq" ])
    ()

(* class RoutedMessage : MessageBase { RefString via, branch; int max_forwards; } *)
let routed_message =
  Obj_model.define ~parent:message_base ~name:"RoutedMessage"
    ~fields:[ "via"; "branch"; "max_forwards" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"sip_msg.cpp" ~base_line:72 cls obj
        ~strings:[ "via"; "branch" ] ~ints:[ "max_forwards" ])
    ()

(* class SipRequest : RoutedMessage
     { int method; RefString uri, contact, user_agent; int expires; } *)
let sip_request =
  Obj_model.define ~parent:routed_message ~name:"SipRequest"
    ~fields:[ "method"; "uri"; "contact"; "user_agent"; "expires"; "auth_response" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"sip_msg.cpp" ~base_line:82 cls obj
        ~strings:[ "uri"; "contact"; "user_agent" ] ~ints:[ "expires"; "method"; "auth_response" ])
    ()

(* class SipResponse : RoutedMessage { int status; RefString reason; } *)
let sip_response =
  Obj_model.define ~parent:routed_message ~name:"SipResponse"
    ~fields:[ "status"; "reason"; "www_auth" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"sip_msg.cpp" ~base_line:94 cls obj ~strings:[ "reason" ]
        ~ints:[ "status"; "www_auth" ])
    ()

(* ------------------------------------------------------------------ *)
(* Parsing (runs in the server, reads the VM receive buffer)           *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse_loc = Loc.v "parser.cpp" "SipParser::parse" 100

(** Parse a received buffer into a host-side view, reading every byte
    through the VM in the calling (worker) thread's context. *)
let parse_request buf len =
  let text =
    String.init len (fun i -> Char.chr (Api.read ~loc:parse_loc (buf + i) land 0xff))
  in
  let lines = String.split_on_char '\n' text |> List.map String.trim in
  match lines with
  | [] -> raise (Parse_error "empty message")
  | request_line :: headers -> (
      match String.split_on_char ' ' request_line with
      | [ m; uri; "SIP/2.0" ] -> (
          match meth_of_string m with
          | None -> raise (Parse_error ("unknown method " ^ m))
          | Some w_meth ->
              let find name =
                let prefix = name ^ ": " in
                List.find_map
                  (fun l ->
                    if String.length l >= String.length prefix
                       && String.sub l 0 (String.length prefix) = prefix
                    then Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
                    else None)
                  headers
              in
              let required name =
                match find name with
                | Some v -> v
                | None -> raise (Parse_error ("missing header " ^ name))
              in
              let cseq =
                match String.split_on_char ' ' (required "CSeq") with
                | n :: _ -> ( match int_of_string_opt n with Some n -> n | None -> raise (Parse_error "bad CSeq"))
                | [] -> raise (Parse_error "bad CSeq")
              in
              {
                w_meth;
                w_uri = uri;
                w_from = required "From";
                w_to = required "To";
                w_call_id = required "Call-ID";
                w_cseq = cseq;
                w_contact = (match find "Contact" with Some c -> c | None -> "");
                w_expires =
                  (match find "Expires" with
                  | Some e -> ( match int_of_string_opt e with Some e -> e | None -> -1)
                  | None -> -1);
                w_auth =
                  (match find "Authorization" with
                  | Some a -> (
                      match String.index_opt a '=' with
                      | Some i -> (
                          match
                            int_of_string_opt
                              (String.trim (String.sub a (i + 1) (String.length a - i - 1)))
                          with
                          | Some v -> v
                          | None -> 0)
                      | None -> 0)
                  | None -> 0);
              })
      | _ -> raise (Parse_error "malformed request line"))

(** Materialise a parsed request as a VM object owned by the calling
    thread. *)
let build_request_object ~loc w =
  Obj_model.new_ ~loc sip_request ~init:(fun obj ->
      let cls = sip_request in
      Obj_model.set ~loc cls obj "from" (Refstring.create ~loc w.w_from);
      Obj_model.set ~loc cls obj "to" (Refstring.create ~loc w.w_to);
      Obj_model.set ~loc cls obj "call_id" (Refstring.create ~loc w.w_call_id);
      Obj_model.set ~loc cls obj "cseq" w.w_cseq;
      Obj_model.set ~loc cls obj "via"
        (Refstring.create ~loc ("SIP/2.0/UDP client.invalid;received=10.0.0.1"));
      Obj_model.set ~loc cls obj "branch" (Refstring.create ~loc ("z9hG4bK-" ^ w.w_call_id));
      Obj_model.set ~loc cls obj "max_forwards" 70;
      Obj_model.set ~loc cls obj "method" (meth_code w.w_meth);
      Obj_model.set ~loc cls obj "uri" (Refstring.create ~loc w.w_uri);
      Obj_model.set ~loc cls obj "contact"
        (if w.w_contact = "" then 0 else Refstring.create ~loc w.w_contact);
      Obj_model.set ~loc cls obj "user_agent" (Refstring.create ~loc "SIPp-sim/1.0");
      Obj_model.set ~loc cls obj "expires" w.w_expires;
      Obj_model.set ~loc cls obj "auth_response" w.w_auth)

(** Build a response object.  Header strings are {e copied} from the
    request object and the reason phrase is copied from the server's
    shared canned-string table — every copy of a rep shared across
    threads is a bus-locked refcount increment preceded by a plain
    read, the Figure 8 pattern. *)
let build_response_object ~loc ?(www_auth = 0) ~status ~reason_rs req_obj =
  let rc = sip_request in
  Obj_model.new_ ~loc sip_response ~init:(fun obj ->
      let cls = sip_response in
      Obj_model.set ~loc cls obj "from" (Refstring.copy (Obj_model.get ~loc rc req_obj "from"));
      Obj_model.set ~loc cls obj "to" (Refstring.copy (Obj_model.get ~loc rc req_obj "to"));
      Obj_model.set ~loc cls obj "call_id"
        (Refstring.copy (Obj_model.get ~loc rc req_obj "call_id"));
      Obj_model.set ~loc cls obj "cseq" (Obj_model.get ~loc rc req_obj "cseq");
      Obj_model.set ~loc cls obj "via" (Refstring.copy (Obj_model.get ~loc rc req_obj "via"));
      Obj_model.set ~loc cls obj "branch"
        (Refstring.copy (Obj_model.get ~loc rc req_obj "branch"));
      Obj_model.set ~loc cls obj "max_forwards" 70;
      Obj_model.set ~loc cls obj "status" status;
      Obj_model.set ~loc cls obj "www_auth" www_auth;
      Obj_model.set ~loc cls obj "reason" (Refstring.copy reason_rs))

(** Serialise a response object to its wire form (VM reads). *)
let serialize_response ~loc obj =
  let cls = sip_response in
  let s field = Refstring.to_string (Obj_model.get ~loc cls obj field) in
  let status = Obj_model.get ~loc cls obj "status" in
  let cseq = Obj_model.get ~loc cls obj "cseq" in
  let www_auth = Obj_model.get ~loc cls obj "www_auth" in
  let auth_header =
    if www_auth <> 0 then Printf.sprintf "WWW-Authenticate: Digest nonce=%d\r\n" www_auth
    else ""
  in
  Printf.sprintf "SIP/2.0 %d %s\r\nFrom: %s\r\nTo: %s\r\nCall-ID: %s\r\nCSeq: %d\r\n%s\r\n"
    status (s "reason") (s "from") (s "to") (s "call_id") cseq auth_header
