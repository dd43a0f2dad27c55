//! # bce-statefile — client state-file ingestion
//!
//! The paper's web interface lets volunteers paste their BOINC
//! `client_state.xml` into a form so developers can replay their exact
//! scenario (§4.3). This crate provides a from-scratch XML-subset parser
//! and the mapping between such documents and the domain model.

pub(crate) mod codec;
pub(crate) mod doc;
pub(crate) mod frame;
pub(crate) mod io;
pub mod json;
pub(crate) mod store;
pub(crate) mod xml;

pub use codec::{
    attr_parse, envelope, fmt_f64_bits, fmt_u64_hex, open_envelope, parse_f64_bits, parse_u64_hex,
    req_attr, req_child, CodecError,
};
pub use doc::{ClientStateDoc, StateFileError};
pub use io::{FaultyIo, IoOp, RealIo, SharedIo, StateIo};
pub use json::{parse as parse_json, Echo, JsonError, JsonValue};
pub use store::{
    CheckpointStore, RecoveryReport, RejectedGeneration, StoreError, WriteReceipt,
    DEFAULT_KEEP_GENERATIONS,
};
pub use xml::{XmlError, XmlNode};
