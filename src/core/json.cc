#include "core/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace msgsim
{

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

void
Json::push(Json v)
{
    kind_ = Kind::Array;
    items_.push_back(std::move(v));
}

void
Json::set(const std::string &key, Json v)
{
    kind_ = Kind::Object;
    for (auto &[k, val] : fields_) {
        if (k == key) {
            val = std::move(v);
            return;
        }
    }
    fields_.emplace_back(key, std::move(v));
}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &[k, v] : fields_)
        if (k == key)
            return &v;
    return nullptr;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonReal(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no inf/nan
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    // Ensure the value re-parses as a real, not an integer, so the
    // int/real distinction survives a golden round trip.
    std::string s = buf;
    if (s.find_first_of(".eEn") == std::string::npos)
        s += ".0";
    return s;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    if (v == static_cast<double>(static_cast<long long>(v)))
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad =
        indent ? std::string(static_cast<std::size_t>(indent) *
                                 (static_cast<std::size_t>(depth) + 1),
                             ' ')
               : std::string();
    const std::string close =
        indent ? std::string(static_cast<std::size_t>(indent) *
                                 static_cast<std::size_t>(depth),
                             ' ')
               : std::string();
    const char *nl = indent ? "\n" : "";

    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Int:
        out += std::to_string(int_);
        break;
      case Kind::Real:
        out += jsonReal(real_);
        break;
      case Kind::String:
        out += '"';
        out += jsonEscape(str_);
        out += '"';
        break;
      case Kind::Array: {
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < items_.size(); ++i) {
            out += pad;
            items_[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < items_.size())
                out += ',';
            out += nl;
            if (!indent && i + 1 < items_.size())
                out += ' ';
        }
        out += close;
        out += ']';
        break;
      }
      case Kind::Object: {
        if (fields_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            out += pad;
            out += '"';
            out += jsonEscape(fields_[i].first);
            out += "\": ";
            fields_[i].second.dumpTo(out, indent, depth + 1);
            if (i + 1 < fields_.size())
                out += ',';
            out += nl;
            if (!indent && i + 1 < fields_.size())
                out += ' ';
        }
        out += close;
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent)
        out += '\n';
    return out;
}

namespace
{

/** Recursive-descent parser over a string view. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &what)
    {
        std::size_t line = 1;
        for (std::size_t i = 0; i < pos && i < text.size(); ++i)
            if (text[i] == '\n')
                ++line;
        error = "json: line " + std::to_string(line) + ": " + what;
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("dangling escape");
                char e = text[pos++];
                switch (e) {
                  case '"':  out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/':  out += '/'; break;
                  case 'n':  out += '\n'; break;
                  case 't':  out += '\t'; break;
                  case 'r':  out += '\r'; break;
                  case 'b':  out += '\b'; break;
                  case 'f':  out += '\f'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    // Only BMP code points below 0x80 are emitted by
                    // our serializer; encode others as UTF-8.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(Json &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{') {
            ++pos;
            out = Json::object();
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':'");
                Json v;
                if (!parseValue(v))
                    return false;
                out.set(key, std::move(v));
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out = Json::array();
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                Json v;
                if (!parseValue(v))
                    return false;
                out.push(std::move(v));
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
        }
        if (text.compare(pos, 4, "true") == 0) {
            pos += 4;
            out = Json(true);
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            pos += 5;
            out = Json(false);
            return true;
        }
        if (text.compare(pos, 4, "null") == 0) {
            pos += 4;
            out = Json();
            return true;
        }
        // Number: integer unless it contains '.', 'e', or 'E'.
        std::size_t start = pos;
        if (c == '-' || c == '+')
            ++pos;
        bool isReal = false;
        while (pos < text.size()) {
            char d = text[pos];
            if (std::isdigit(static_cast<unsigned char>(d))) {
                ++pos;
            } else if (d == '.' || d == 'e' || d == 'E' || d == '-' ||
                       d == '+') {
                if (d == '.' || d == 'e' || d == 'E')
                    isReal = true;
                ++pos;
            } else {
                break;
            }
        }
        if (pos == start)
            return fail("unexpected character");
        const std::string tok = text.substr(start, pos - start);
        if (isReal) {
            out = Json(std::strtod(tok.c_str(), nullptr));
        } else {
            out = Json(static_cast<std::int64_t>(
                std::strtoll(tok.c_str(), nullptr, 10)));
        }
        return true;
    }
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string *error)
{
    Parser p{text, 0, {}};
    if (!p.parseValue(out)) {
        if (error)
            *error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (error) {
            p.fail("trailing garbage");
            *error = p.error;
        }
        return false;
    }
    return true;
}

} // namespace msgsim
