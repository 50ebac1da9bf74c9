type t = {
  name : string;
  deterministic : bool;
  encrypt : Secdb_db.Address.t -> string -> string;
  decrypt : Secdb_db.Address.t -> string -> (string, string) result;
}

let encrypt t addr v = t.encrypt addr v
let decrypt t addr c = t.decrypt addr c
let roundtrips t addr v = decrypt t addr (encrypt t addr v) = Ok v
