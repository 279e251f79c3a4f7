/**
 * @file
 * Minimal JSON document model for the lab's machine-readable
 * artifacts and golden files.
 *
 * Deliberately small: objects preserve insertion order (so emitted
 * documents are byte-deterministic), numbers distinguish integers
 * from reals (instruction counts round-trip exactly), and the parser
 * accepts exactly the documents the serializer produces plus
 * ordinary hand-edited JSON.  No external dependency.
 */

#ifndef MSGSIM_CORE_JSON_HH
#define MSGSIM_CORE_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace msgsim
{

/** One JSON value (null / bool / int / real / string / array / object). */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,
        Real,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(std::int64_t i) : kind_(Kind::Int), int_(i) {}
    Json(std::uint64_t u)
        : kind_(Kind::Int), int_(static_cast<std::int64_t>(u))
    {
    }
    Json(int i) : kind_(Kind::Int), int_(i) {}
    Json(double d) : kind_(Kind::Real), real_(d) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Json(const char *s) : kind_(Kind::String), str_(s) {}

    /** Make an empty array / object. */
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }

    bool asBool() const { return bool_; }
    std::int64_t asInt() const { return int_; }
    /** Numeric value as double (works for Int and Real). */
    double asReal() const
    {
        return kind_ == Kind::Int ? static_cast<double>(int_) : real_;
    }
    const std::string &asString() const { return str_; }

    // Array access.
    void push(Json v);
    std::size_t size() const { return items_.size(); }
    const Json &at(std::size_t i) const { return items_[i]; }

    // Object access (insertion-ordered).
    void set(const std::string &key, Json v);
    /** Member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Serialize; @p indent 0 = compact, else pretty with that step. */
    std::string dump(int indent = 0) const;

    /**
     * Parse @p text.  Returns false (and fills @p error with a
     * line-annotated message) on malformed input.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *error = nullptr);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double real_ = 0.0;
    std::string str_;
    std::vector<Json> items_;                          // Array
    std::vector<std::pair<std::string, Json>> fields_; // Object
};

/** Escape a string for embedding in JSON (adds no quotes). */
std::string jsonEscape(const std::string &s);

/** Deterministic formatting of a real number ("%.10g"). */
std::string jsonReal(double v);

/** Exact formatting of a number: an integral value prints as an
 *  integer, any other as "%.17g" (round-trips). */
std::string jsonNumber(double v);

} // namespace msgsim

#endif // MSGSIM_CORE_JSON_HH
