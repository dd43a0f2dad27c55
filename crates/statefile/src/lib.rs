//! # bce-statefile — client state-file ingestion
//!
//! The paper's web interface lets volunteers paste their BOINC
//! `client_state.xml` into a form so developers can replay their exact
//! scenario (§4.3). This crate provides a from-scratch XML-subset parser
//! and the mapping between such documents and the domain model.

pub mod codec;
pub mod doc;
pub mod frame;
pub mod io;
pub mod json;
pub mod store;
pub mod xml;

pub use codec::{
    attr_parse, envelope, fmt_f64_bits, fmt_u64_hex, open_envelope, parse_f64_bits, parse_u64_hex,
    req_attr, req_child, CodecError,
};
pub use doc::{ClientStateDoc, StateFileError};
pub use frame::{crc64, FrameError, FRAME_HEADER_LEN, FRAME_MAGIC, FRAME_VERSION};
pub use io::{FaultyIo, IoOp, RealIo, SharedIo, StateIo};
pub use json::{parse as parse_json, Echo, JsonError, JsonValue, ECHO_LIMIT, MAX_JSON_DEPTH};
pub use store::{
    CheckpointStore, RecoveryReport, RejectedGeneration, StoreError, WriteReceipt,
    DEFAULT_KEEP_GENERATIONS,
};
pub use xml::{parse as parse_xml, XmlError, XmlNode, MAX_NESTING_DEPTH};
