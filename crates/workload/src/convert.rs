//! Execution-trace converters (§IV-A).
//!
//! The paper defines a common format ("ASTRA-sim ET") and converts foreign
//! traces (PyTorch execution graphs, FlexFlow) into it rather than teaching
//! the simulator every format. [`TraceConverter`] is that interface;
//! [`JsonEtConverter`] handles the native JSON schema. Converters for other
//! sources implement the same trait.

use crate::trace::{ExecutionTrace, JsonEtError};
use std::error::Error;

/// Converts an external trace representation into an [`ExecutionTrace`].
pub trait TraceConverter {
    /// Conversion error type.
    type Error: Error;

    /// Converts raw trace text into the common ET format.
    ///
    /// # Errors
    ///
    /// Returns the converter's error when the input cannot be understood.
    fn convert(&self, input: &str) -> Result<ExecutionTrace, Self::Error>;

    /// Name of the source format (e.g. `"astra-json"`, `"pytorch-eg"`).
    fn source_format(&self) -> &'static str;
}

/// The native converter: parses the ASTRA-sim JSON ET schema produced by
/// [`ExecutionTrace::to_json`] and validates it like [`ExecutionTrace::from_json`].
///
/// # Example
///
/// ```
/// use astra_workload::{models, parallelism, JsonEtConverter, Parallelism, TraceConverter};
///
/// let trace = parallelism::generate_trace(&models::dlrm_57m(), Parallelism::Data, 4).unwrap();
/// let json = trace.to_json().unwrap();
/// let restored = JsonEtConverter.convert(&json).unwrap();
/// assert_eq!(restored, trace);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct JsonEtConverter;

impl TraceConverter for JsonEtConverter {
    type Error = JsonEtError;

    fn convert(&self, input: &str) -> Result<ExecutionTrace, Self::Error> {
        ExecutionTrace::from_json(input)
    }

    fn source_format(&self) -> &'static str {
        "astra-json"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{models, parallelism, Parallelism};

    #[test]
    fn json_converter_roundtrip() {
        let trace =
            parallelism::generate_trace(&models::gpt3_175b(), Parallelism::Hybrid { mp: 4 }, 8)
                .unwrap();
        let json = trace.to_json().unwrap();
        let restored = JsonEtConverter.convert(&json).unwrap();
        assert_eq!(restored, trace);
        assert_eq!(JsonEtConverter.source_format(), "astra-json");
    }

    #[test]
    fn json_converter_rejects_dangling_dependency() {
        let trace = parallelism::generate_trace(&models::dlrm_57m(), Parallelism::Data, 4).unwrap();
        let json = trace.to_json().unwrap();
        let broken = json.replacen("\"deps\": []", "\"deps\": [999999]", 1);
        assert_ne!(broken, json, "the fixture has a root node to break");
        let err = JsonEtConverter.convert(&broken).unwrap_err();
        assert!(matches!(
            err,
            JsonEtError::Invalid(crate::TraceError::BadDependency { npu: 0, node: 0 })
        ));
        assert!(
            err.to_string().contains("invalid ASTRA-sim JSON ET"),
            "{err}"
        );
    }

    #[test]
    fn json_converter_rejects_garbage() {
        let err = JsonEtConverter.convert("{not json").unwrap_err();
        assert!(err.to_string().contains("invalid ASTRA-sim JSON ET"));
    }
}
