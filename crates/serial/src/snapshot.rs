//! Schema-driven snapshot codec for junction table state (§9 applied to
//! live reconfiguration).
//!
//! The reconfiguration executor moves a quiesced junction's table from
//! architecture A to architecture B by exporting it
//! (`csaw_kv::TableState`), carrying it across the cut as *bytes*, and
//! importing on the other side. Using the §9 type-aware serializer for
//! that hop — rather than cloning in memory — keeps the migration path
//! identical whether the destination cell lives in this process or
//! behind a TCP link, and it exercises the same depth-capped traversal
//! the paper built for `save`/`restore`.
//!
//! Everything is expressed in the C-like data model of [`crate::schema`]:
//! maps become sorted linked lists, enums become tagged structs. The
//! schema is registered once per codec call into a private [`Registry`].

use csaw_core::names::SetElem;
use csaw_core::value::Value;
use csaw_kv::table::{PendingState, TableState};
use csaw_kv::{Update, UpdateKind};

use crate::codec::{decode, encode, CodecConfig, CodecError};
use crate::heap::HeapValue;
use crate::schema::{Prim, Registry, TypeDesc};

const MAX_STR: usize = 1 << 16;
const MAX_BLOB: usize = 32 << 20;

/// Codec limits suited to table snapshots: the pending queue and the
/// entry maps are linked lists, so pointer depth is proportional to
/// their *length*, not to any nesting — the default 64-hop cap would
/// silently truncate a moderately busy table.
pub fn snapshot_config() -> CodecConfig {
    CodecConfig {
        max_depth: 1 << 20,
        max_bytes: 64 << 20,
    }
}

/// Register the table-state schema into `reg` and return the root type.
pub fn table_state_schema(reg: &mut Registry) -> TypeDesc {
    let cs = || TypeDesc::CString { max_len: MAX_STR };
    // Set elements: tagged by kind.
    reg.register(
        "cs_selem",
        TypeDesc::strct(
            "cs_selem",
            vec![
                ("tag", TypeDesc::Prim(Prim::U8)),
                ("a", cs()),
                ("b", cs()),
                ("i", TypeDesc::Prim(Prim::I64)),
            ],
        ),
    );
    reg.register_list_node("cs_selem_list", TypeDesc::Named("cs_selem".into()));
    let selems = || TypeDesc::ptr(TypeDesc::Named("cs_selem_list".into()));
    // DSL values: tagged union.
    reg.register(
        "cs_value",
        TypeDesc::strct(
            "cs_value",
            vec![
                ("tag", TypeDesc::Prim(Prim::U8)),
                ("i", TypeDesc::Prim(Prim::I64)),
                ("s", cs()),
                ("bytes", TypeDesc::Blob { max_len: MAX_BLOB }),
                ("set", selems()),
            ],
        ),
    );
    reg.register(
        "cs_prop",
        TypeDesc::strct(
            "cs_prop",
            vec![("key", cs()), ("val", TypeDesc::Prim(Prim::Bool))],
        ),
    );
    reg.register_list_node("cs_prop_list", TypeDesc::Named("cs_prop".into()));
    reg.register(
        "cs_datum",
        TypeDesc::strct(
            "cs_datum",
            vec![("key", cs()), ("val", TypeDesc::Named("cs_value".into()))],
        ),
    );
    reg.register_list_node("cs_datum_list", TypeDesc::Named("cs_datum".into()));
    reg.register(
        "cs_subset",
        TypeDesc::strct(
            "cs_subset",
            vec![
                ("name", cs()),
                ("base", selems()),
                ("defined", TypeDesc::Prim(Prim::Bool)),
                ("val", selems()),
            ],
        ),
    );
    reg.register_list_node("cs_subset_list", TypeDesc::Named("cs_subset".into()));
    reg.register(
        "cs_idx",
        TypeDesc::strct(
            "cs_idx",
            vec![
                ("name", cs()),
                ("base", selems()),
                ("defined", TypeDesc::Prim(Prim::Bool)),
                ("val", cs()),
            ],
        ),
    );
    reg.register_list_node("cs_idx_list", TypeDesc::Named("cs_idx".into()));
    reg.register(
        "cs_update",
        TypeDesc::strct(
            "cs_update",
            vec![
                ("key", cs()),
                ("kind", TypeDesc::Prim(Prim::U8)),
                ("val", TypeDesc::Named("cs_value".into())),
                ("from", cs()),
                ("seq", TypeDesc::Prim(Prim::U64)),
            ],
        ),
    );
    reg.register(
        "cs_pending",
        TypeDesc::strct(
            "cs_pending",
            vec![
                ("update", TypeDesc::Named("cs_update".into())),
                ("during_run", TypeDesc::Prim(Prim::Bool)),
                ("seq", TypeDesc::Prim(Prim::U64)),
            ],
        ),
    );
    reg.register_list_node("cs_pending_list", TypeDesc::Named("cs_pending".into()));
    reg.register(
        "cs_lw",
        TypeDesc::strct(
            "cs_lw",
            vec![
                ("key", cs()),
                ("epoch", TypeDesc::Prim(Prim::U64)),
                ("op", TypeDesc::Prim(Prim::U64)),
            ],
        ),
    );
    reg.register_list_node("cs_lw_list", TypeDesc::Named("cs_lw".into()));
    let root = TypeDesc::strct(
        "cs_table_state",
        vec![
            ("props", TypeDesc::ptr(TypeDesc::Named("cs_prop_list".into()))),
            ("data", TypeDesc::ptr(TypeDesc::Named("cs_datum_list".into()))),
            ("subsets", TypeDesc::ptr(TypeDesc::Named("cs_subset_list".into()))),
            ("idxs", TypeDesc::ptr(TypeDesc::Named("cs_idx_list".into()))),
            ("pending", TypeDesc::ptr(TypeDesc::Named("cs_pending_list".into()))),
            ("epoch", TypeDesc::Prim(Prim::U64)),
            ("locally_written", TypeDesc::ptr(TypeDesc::Named("cs_lw_list".into()))),
            ("op_seq", TypeDesc::Prim(Prim::U64)),
            ("next_window", TypeDesc::Prim(Prim::U64)),
        ],
    );
    reg.register("cs_table_state", root.clone());
    root
}

// ---------------------------------------------------------------------
// Lowering: TableState → HeapValue
// ---------------------------------------------------------------------

fn lower_selem(e: &SetElem) -> HeapValue {
    let (tag, a, b, i) = match e {
        SetElem::Instance(n) => (0u8, n.clone(), String::new(), 0i64),
        SetElem::Junction(inst, j) => (1, inst.clone(), j.clone(), 0),
        SetElem::Str(s) => (2, s.clone(), String::new(), 0),
        SetElem::Int(i) => (3, String::new(), String::new(), *i),
    };
    HeapValue::Struct(vec![
        HeapValue::UInt(tag as u64),
        HeapValue::CString(a),
        HeapValue::CString(b),
        HeapValue::Int(i),
    ])
}

fn lower_selems(elems: &[SetElem]) -> HeapValue {
    HeapValue::list_from(elems.iter().map(lower_selem))
}

fn lower_value(v: &Value) -> HeapValue {
    let undef = (0u8, 0i64, String::new(), Vec::new(), HeapValue::null());
    let (tag, i, s, bytes, set) = match v {
        Value::Undef => undef,
        Value::Bool(b) => (1, *b as i64, String::new(), Vec::new(), HeapValue::null()),
        Value::Int(n) => (2, *n, String::new(), Vec::new(), HeapValue::null()),
        Value::Str(x) => (3, 0, x.clone(), Vec::new(), HeapValue::null()),
        Value::Bytes(b) => (4, 0, String::new(), b.to_vec(), HeapValue::null()),
        Value::Duration(d) => (5, d.as_micros() as i64, String::new(), Vec::new(), HeapValue::null()),
        Value::Target(t) => (6, 0, t.clone(), Vec::new(), HeapValue::null()),
        Value::Set(es) => (7, 0, String::new(), Vec::new(), lower_selems(es)),
    };
    HeapValue::Struct(vec![
        HeapValue::UInt(tag as u64),
        HeapValue::Int(i),
        HeapValue::CString(s),
        HeapValue::Blob(bytes),
        set,
    ])
}

fn lower_update(u: &Update) -> HeapValue {
    let (kind, val) = match &u.kind {
        UpdateKind::Assert => (0u8, lower_value(&Value::Undef)),
        UpdateKind::Retract => (1, lower_value(&Value::Undef)),
        UpdateKind::Data(v) => (2, lower_value(v)),
    };
    HeapValue::Struct(vec![
        HeapValue::CString(u.key.to_string()),
        HeapValue::UInt(kind as u64),
        val,
        HeapValue::CString(u.from.to_string()),
        HeapValue::UInt(u.seq),
    ])
}

fn lower(state: &TableState) -> HeapValue {
    HeapValue::Struct(vec![
        HeapValue::list_from(state.props.iter().map(|(k, v)| {
            HeapValue::Struct(vec![HeapValue::CString(k.clone()), HeapValue::Bool(*v)])
        })),
        HeapValue::list_from(state.data.iter().map(|(k, v)| {
            HeapValue::Struct(vec![HeapValue::CString(k.clone()), lower_value(v)])
        })),
        HeapValue::list_from(state.subsets.iter().map(|(name, base, val)| {
            HeapValue::Struct(vec![
                HeapValue::CString(name.clone()),
                lower_selems(base),
                HeapValue::Bool(val.is_some()),
                lower_selems(val.as_deref().unwrap_or(&[])),
            ])
        })),
        HeapValue::list_from(state.idxs.iter().map(|(name, base, val)| {
            HeapValue::Struct(vec![
                HeapValue::CString(name.clone()),
                lower_selems(base),
                HeapValue::Bool(val.is_some()),
                HeapValue::CString(val.clone().unwrap_or_default()),
            ])
        })),
        HeapValue::list_from(state.pending.iter().map(|p| {
            HeapValue::Struct(vec![
                lower_update(&p.update),
                HeapValue::Bool(p.during_run),
                HeapValue::UInt(p.seq),
            ])
        })),
        HeapValue::UInt(state.epoch),
        HeapValue::list_from(state.locally_written.iter().map(|(k, e, s)| {
            HeapValue::Struct(vec![
                HeapValue::CString(k.clone()),
                HeapValue::UInt(*e),
                HeapValue::UInt(*s),
            ])
        })),
        HeapValue::UInt(state.op_seq),
        HeapValue::UInt(state.next_window),
    ])
}

// ---------------------------------------------------------------------
// Raising: HeapValue → TableState
// ---------------------------------------------------------------------

fn corrupt(what: &str) -> CodecError {
    CodecError::Corrupt(format!("table snapshot: unexpected shape at {what}"))
}

fn as_struct<'a>(v: &'a HeapValue, what: &str) -> Result<&'a [HeapValue], CodecError> {
    match v {
        HeapValue::Struct(fields) => Ok(fields),
        _ => Err(corrupt(what)),
    }
}

fn as_str(v: &HeapValue, what: &str) -> Result<String, CodecError> {
    match v {
        HeapValue::CString(s) => Ok(s.clone()),
        _ => Err(corrupt(what)),
    }
}

fn as_u64(v: &HeapValue, what: &str) -> Result<u64, CodecError> {
    match v {
        HeapValue::UInt(n) => Ok(*n),
        HeapValue::Int(n) => Ok(*n as u64),
        _ => Err(corrupt(what)),
    }
}

fn as_i64(v: &HeapValue, what: &str) -> Result<i64, CodecError> {
    match v {
        HeapValue::Int(n) => Ok(*n),
        HeapValue::UInt(n) => Ok(*n as i64),
        _ => Err(corrupt(what)),
    }
}

fn as_bool(v: &HeapValue, what: &str) -> Result<bool, CodecError> {
    match v {
        HeapValue::Bool(b) => Ok(*b),
        _ => Err(corrupt(what)),
    }
}

fn as_blob(v: &HeapValue, what: &str) -> Result<Vec<u8>, CodecError> {
    match v {
        HeapValue::Blob(b) => Ok(b.clone()),
        _ => Err(corrupt(what)),
    }
}

fn raise_selem(v: &HeapValue) -> Result<SetElem, CodecError> {
    let f = as_struct(v, "selem")?;
    let tag = as_u64(&f[0], "selem.tag")?;
    Ok(match tag {
        0 => SetElem::Instance(as_str(&f[1], "selem.a")?),
        1 => SetElem::Junction(as_str(&f[1], "selem.a")?, as_str(&f[2], "selem.b")?),
        2 => SetElem::Str(as_str(&f[1], "selem.a")?),
        3 => SetElem::Int(as_i64(&f[3], "selem.i")?),
        _ => return Err(corrupt("selem.tag")),
    })
}

fn raise_selems(v: &HeapValue) -> Result<Vec<SetElem>, CodecError> {
    v.list_values().iter().map(|e| raise_selem(e)).collect()
}

fn raise_value(v: &HeapValue) -> Result<Value, CodecError> {
    let f = as_struct(v, "value")?;
    Ok(match as_u64(&f[0], "value.tag")? {
        0 => Value::Undef,
        1 => Value::Bool(as_i64(&f[1], "value.i")? != 0),
        2 => Value::Int(as_i64(&f[1], "value.i")?),
        3 => Value::Str(as_str(&f[2], "value.s")?),
        4 => Value::Bytes(as_blob(&f[3], "value.bytes")?.into()),
        5 => Value::Duration(std::time::Duration::from_micros(
            as_i64(&f[1], "value.i")? as u64,
        )),
        6 => Value::Target(as_str(&f[2], "value.s")?),
        7 => Value::Set(raise_selems(&f[4])?),
        _ => return Err(corrupt("value.tag")),
    })
}

fn raise_update(v: &HeapValue) -> Result<Update, CodecError> {
    let f = as_struct(v, "update")?;
    let kind = match as_u64(&f[1], "update.kind")? {
        0 => UpdateKind::Assert,
        1 => UpdateKind::Retract,
        2 => UpdateKind::Data(raise_value(&f[2])?),
        _ => return Err(corrupt("update.kind")),
    };
    Ok(Update {
        key: as_str(&f[0], "update.key")?.into(),
        kind,
        from: as_str(&f[3], "update.from")?.into(),
        seq: as_u64(&f[4], "update.seq")?,
    })
}

fn raise(v: &HeapValue) -> Result<TableState, CodecError> {
    let f = as_struct(v, "table_state")?;
    let mut props = Vec::new();
    for p in f[0].list_values() {
        let pf = as_struct(p, "prop")?;
        props.push((as_str(&pf[0], "prop.key")?, as_bool(&pf[1], "prop.val")?));
    }
    let mut data = Vec::new();
    for d in f[1].list_values() {
        let df = as_struct(d, "datum")?;
        data.push((as_str(&df[0], "datum.key")?, raise_value(&df[1])?));
    }
    let mut subsets = Vec::new();
    for s in f[2].list_values() {
        let sf = as_struct(s, "subset")?;
        let defined = as_bool(&sf[2], "subset.defined")?;
        subsets.push((
            as_str(&sf[0], "subset.name")?,
            raise_selems(&sf[1])?,
            defined.then(|| raise_selems(&sf[3])).transpose()?,
        ));
    }
    let mut idxs = Vec::new();
    for s in f[3].list_values() {
        let sf = as_struct(s, "idx")?;
        let defined = as_bool(&sf[2], "idx.defined")?;
        idxs.push((
            as_str(&sf[0], "idx.name")?,
            raise_selems(&sf[1])?,
            defined.then(|| as_str(&sf[3], "idx.val")).transpose()?,
        ));
    }
    let mut pending = Vec::new();
    for p in f[4].list_values() {
        let pf = as_struct(p, "pending")?;
        pending.push(PendingState {
            update: raise_update(&pf[0])?,
            during_run: as_bool(&pf[1], "pending.during_run")?,
            seq: as_u64(&pf[2], "pending.seq")?,
        });
    }
    let mut locally_written = Vec::new();
    for l in f[6].list_values() {
        let lf = as_struct(l, "lw")?;
        locally_written.push((
            as_str(&lf[0], "lw.key")?,
            as_u64(&lf[1], "lw.epoch")?,
            as_u64(&lf[2], "lw.op")?,
        ));
    }
    Ok(TableState {
        props,
        data,
        subsets,
        idxs,
        pending,
        epoch: as_u64(&f[5], "epoch")?,
        locally_written,
        op_seq: as_u64(&f[7], "op_seq")?,
        next_window: as_u64(&f[8], "next_window")?,
    })
}

/// The snapshot schema, built once per process. The schema is static —
/// rebuilding the whole registry (a dozen named types) on every encode
/// *and* decode call was pure hot-path waste on the migration path.
fn schema() -> &'static (Registry, TypeDesc) {
    static SCHEMA: std::sync::OnceLock<(Registry, TypeDesc)> = std::sync::OnceLock::new();
    SCHEMA.get_or_init(|| {
        let mut reg = Registry::new();
        let root = table_state_schema(&mut reg);
        (reg, root)
    })
}

/// Encode an exported table state through the §9 codec.
pub fn encode_table_state(state: &TableState) -> Result<Vec<u8>, CodecError> {
    let (reg, root) = schema();
    encode(&lower(state), root, reg, &snapshot_config())
}

/// Decode bytes produced by [`encode_table_state`].
pub fn decode_table_state(bytes: &[u8]) -> Result<TableState, CodecError> {
    let (reg, root) = schema();
    let hv = decode(bytes, root, reg, &snapshot_config())?;
    raise(&hv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_kv::Table;

    #[test]
    fn empty_table_round_trips() {
        let t = Table::new();
        let state = t.export_state();
        let bytes = encode_table_state(&state).unwrap();
        assert_eq!(decode_table_state(&bytes).unwrap(), state);
    }

    #[test]
    fn populated_table_round_trips() {
        let mut t = Table::new();
        t.declare_prop("Work", false);
        t.declare_data("n");
        t.declare_data("blob");
        t.declare_subset("grp", vec![SetElem::Instance("b1".into())]);
        t.declare_idx(
            "tgt",
            vec![SetElem::Instance("b1".into()), SetElem::Instance("b2".into())],
        );
        t.set_idx("tgt", "b2").unwrap();
        t.begin_activation();
        t.set_prop_local("Work", true).unwrap();
        t.set_data_local("n", Value::Int(-42)).unwrap();
        t.set_data_local("blob", Value::from(vec![0, 1, 2, 255])).unwrap();
        t.deliver(Update::data("n", Value::Str("queued".into()), "peer::j"));
        t.deliver(Update::assert("Work", "peer::j"));
        t.end_activation();

        let state = t.export_state();
        let bytes = encode_table_state(&state).unwrap();
        let back = decode_table_state(&bytes).unwrap();
        assert_eq!(back, state);

        // And the decoded state drives a table identically.
        let mut u = Table::new();
        u.import_state(back);
        u.begin_activation();
        u.end_activation();
        let mut v = Table::new();
        v.import_state(state);
        v.begin_activation();
        v.end_activation();
        assert_eq!(u.export_state(), v.export_state());
    }

    #[test]
    fn all_value_variants_round_trip() {
        let mut t = Table::new();
        for (i, v) in [
            Value::Undef,
            Value::Bool(true),
            Value::Int(i64::MIN + 1),
            Value::Str("héllo".into()),
            Value::from(vec![9; 100]),
            Value::Duration(std::time::Duration::from_millis(1500)),
            Value::Target("b1::serve".into()),
            Value::Set(vec![
                SetElem::Instance("b1".into()),
                SetElem::Junction("b2".into(), "serve".into()),
                SetElem::Str("s".into()),
                SetElem::Int(-7),
            ]),
        ]
        .into_iter()
        .enumerate()
        {
            let key = format!("d{i}");
            t.declare_data(&key);
            if !v.is_undef() {
                t.set_data_local(&key, v).unwrap();
            }
        }
        let state = t.export_state();
        let bytes = encode_table_state(&state).unwrap();
        assert_eq!(decode_table_state(&bytes).unwrap(), state);
    }
}
